package main

import (
	"testing"
	"time"

	"churnreg/client"
)

// initialOnly is the baseline the set-up write left on key 0.
var initialOnly = map[int64]client.Versioned{0: {Val: -1, SN: 1}}

func TestCheckHistoryAcceptsRegularRun(t *testing.T) {
	ops := []op{{write: true, key: 0}, {key: 0}, {key: 0}}
	recs := []rec{
		{sent: 10, end: 20, status: stOK, val: client.Versioned{Val: 1, SN: 2}},
		// Concurrent with the write: either value is regular.
		{sent: 15, end: 25, status: stOK, val: client.Versioned{Val: -1, SN: 1}},
		// After the write completed: must see it.
		{sent: 30, end: 40, status: stOK, val: client.Versioned{Val: 1, SN: 2}},
	}
	vd, err := checkHistory(ops, recs, initialOnly)
	if err != nil || len(vd.violations) != 0 {
		t.Fatalf("regular run: %v %v", err, vd.violations)
	}
}

func TestCheckHistoryFlagsStaleRead(t *testing.T) {
	ops := []op{{write: true, key: 0}, {key: 0}}
	recs := []rec{
		{sent: 10, end: 20, status: stOK, val: client.Versioned{Val: 1, SN: 2}},
		{sent: 30, end: 40, status: stOK, val: client.Versioned{Val: -1, SN: 1}},
	}
	vd, err := checkHistory(ops, recs, initialOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(vd.violations) != 1 {
		t.Fatalf("stale read: %d violations, want 1", len(vd.violations))
	}
}

func TestCheckHistoryChecksEveryKeyGroup(t *testing.T) {
	// One stale read on each of keyGroups+1 keys, so every group and one
	// group twice hold a violation; the groups' findings add up.
	initial := map[int64]client.Versioned{}
	var ops []op
	var recs []rec
	for k := int64(0); k <= keyGroups; k++ {
		initial[k] = client.Versioned{Val: -k - 1, SN: 1}
		ops = append(ops, op{write: true, key: k}, op{key: k})
		recs = append(recs,
			rec{sent: 10, end: 20, status: stOK, val: client.Versioned{Val: k + 1, SN: 2}},
			rec{sent: 30, end: 40, status: stOK, val: client.Versioned{Val: -k - 1, SN: 1}})
	}
	vd, err := checkHistory(ops, recs, initial)
	if err != nil {
		t.Fatal(err)
	}
	if len(vd.violations) != keyGroups+1 {
		t.Fatalf("%d violations, want %d", len(vd.violations), keyGroups+1)
	}
}

func TestCheckHistoryResolvesAmbiguousWrite(t *testing.T) {
	// The write (value 1, op index 0) went unanswered; a later read saw
	// its value, so it was applied and the read is regular.
	ops := []op{{write: true, key: 0}, {key: 0}, {write: true, key: 0}}
	recs := []rec{
		{sent: 10, end: 2000, status: stAmbiguous},
		{sent: 3000, end: 3010, status: stOK, val: client.Versioned{Val: 1, SN: 2}},
		{status: stSkipped},
	}
	vd, err := checkHistory(ops, recs, initialOnly)
	if err != nil {
		t.Fatal(err)
	}
	if vd.ambiguous != 1 || vd.resolved != 1 || len(vd.violations) != 0 {
		t.Fatalf("got %+v", vd)
	}
	// A failed write was not applied: a read returning its value is not
	// regular.
	recs[0].status = stFailed
	vd, err = checkHistory(ops, recs, initialOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(vd.violations) != 1 {
		t.Fatalf("read of an unapplied write: %d violations, want 1", len(vd.violations))
	}
}

func TestHistTimeKeepsBaselineFirst(t *testing.T) {
	if histTime(0) <= 0 {
		t.Error("an operation at the origin would coincide with the set-up baseline")
	}
	if histTime(time.Millisecond) != histTime(0)+1_000_000 {
		t.Error("history clock is not nanoseconds")
	}
}
