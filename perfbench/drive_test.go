package main

import (
	"sync"
	"testing"
	"time"

	"churnreg/client"
)

// fakeStore answers operations after a per-key delay; an ambiguous write
// is scripted by key.
type fakeStore struct {
	mu        sync.Mutex
	delay     map[int64]time.Duration
	ambiguous map[int64]bool
	writes    []int64 // keys written, in call order
}

func (f *fakeStore) Write(key, val int64) (client.Versioned, error) {
	f.mu.Lock()
	f.writes = append(f.writes, key)
	d, amb := f.delay[key], f.ambiguous[key]
	f.mu.Unlock()
	time.Sleep(d)
	if amb {
		return client.Versioned{}, &client.AmbiguousWriteError{Key: key, Val: val}
	}
	return client.Versioned{Val: val, SN: 1}, nil
}

func (f *fakeStore) ReadServed(key int64) (client.Versioned, int64, error) {
	f.mu.Lock()
	d := f.delay[key]
	f.mu.Unlock()
	time.Sleep(d)
	return client.Versioned{Val: 0, SN: 0}, 1, nil
}

// TestOpenLoopSendsOnScheduleDespiteSlowOps: one slow operation must not
// delay the sends after it, and every operation's due time is its slot in
// the schedule, not its send time.
func TestOpenLoopSendsOnScheduleDespiteSlowOps(t *testing.T) {
	const step = 2 * time.Millisecond
	ops := make([]op, 20)
	for i := range ops {
		ops[i] = op{key: int64(i % 2), due: time.Duration(i) * step}
	}
	// Key 1 takes 30 ms: ten of them overlap the whole schedule.
	fs := &fakeStore{delay: map[int64]time.Duration{1: 30 * time.Millisecond}}
	r := newRunner(fs, ops, 2, time.Now())
	r.openLoop()
	for i, rc := range r.recs {
		if rc.due != ops[i].due {
			t.Errorf("op %d: due %v, want its scheduled %v", i, rc.due, ops[i].due)
		}
		if rc.status != stOK || rc.sent < rc.due || rc.end < rc.sent {
			t.Errorf("op %d: bad record %+v", i, rc)
		}
		// A closed loop would have sent op 19 only after nine 30 ms reads;
		// on schedule it goes at 38 ms.
		if late := rc.sent - rc.due; late > 20*time.Millisecond {
			t.Errorf("op %d sent %v late: sends waited on earlier operations", i, late)
		}
	}
}

// TestLatencyCountsFromDueTime: a late send adds its lateness to the
// operation's latency, and lateness is send minus due.
func TestLatencyCountsFromDueTime(t *testing.T) {
	ms1 := time.Millisecond
	res := &passResult{window: 10 * ms1}
	at := func(d time.Duration) time.Duration { return warmup + d }
	res.ops = []op{{}, {}, {write: true}, {}}
	res.recs = []rec{
		// On time: 1 ms latency.
		{due: at(0), sent: at(0), end: at(ms1), status: stOK},
		// Sent 5 ms late, answered 1 ms after the send: 6 ms latency.
		{due: at(2 * ms1), sent: at(7 * ms1), end: at(8 * ms1), status: stOK},
		// A write, 2 ms.
		{due: at(3 * ms1), sent: at(3 * ms1), end: at(5 * ms1), status: stOK},
		// Due after the window: not measured.
		{due: at(10 * ms1), sent: at(10 * ms1), end: at(11 * ms1), status: stOK},
	}
	reads := latencies(res, false)
	if len(reads) != 2 || reads[0] != 1 || reads[1] != 6 {
		t.Errorf("read latencies %v, want [1 6]", reads)
	}
	if w := latencies(res, true); len(w) != 1 || w[0] != 2 {
		t.Errorf("write latencies %v, want [2]", w)
	}
	if got := lateP99Ms(res); got != 5 {
		t.Errorf("late p99 = %g ms, want 5", got)
	}
	// Three succeeded, the last 8 ms into the window.
	if n, d := succeeded(res); n != 3 || d != 8*ms1 {
		t.Errorf("succeeded = %d in %v, want 3 in 8ms", n, d)
	}
	if got := throughput(res); got != 375 {
		t.Errorf("throughput = %g ops/s, want 375", got)
	}
}

// TestAmbiguousWritePoisonsKey: after an ambiguous write, later writes to
// that key are not issued; other keys are unaffected.
func TestAmbiguousWritePoisonsKey(t *testing.T) {
	ops := []op{{write: true, key: 0}, {write: true, key: 0}, {write: true, key: 1}, {key: 0}}
	fs := &fakeStore{ambiguous: map[int64]bool{0: true}}
	r := newRunner(fs, ops, 2, time.Now())
	for i := range ops {
		r.exec(i)
	}
	want := []uint8{stAmbiguous, stSkipped, stOK, stOK}
	for i, w := range want {
		if r.recs[i].status != w {
			t.Errorf("op %d status %d, want %d", i, r.recs[i].status, w)
		}
	}
	if len(fs.writes) != 2 {
		t.Errorf("writes issued to keys %v, want only the first to key 0 and the one to key 1", fs.writes)
	}
}

// TestClosedLoopStopsAtEnd: a closed loop keeps issuing until its end
// and truncates the unissued tail of its operations.
func TestClosedLoopStopsAtEnd(t *testing.T) {
	fs := &fakeStore{delay: map[int64]time.Duration{0: time.Millisecond}}
	r := newRunner(fs, nil, 1, time.Now())
	src := newOpSource(workload{keys: 1, inflight: 4}, 1)
	if !r.closedLoop(4, 30*time.Millisecond, src.next) {
		t.Fatal("closed loop reported running out of operations")
	}
	if len(r.recs) == 0 || len(r.recs) != len(r.ops) || len(r.recs) >= src.n {
		t.Fatalf("issued %d of %d drawn operations (%d records)", len(r.ops), src.n, len(r.recs))
	}
	for i, rc := range r.recs {
		if rc.status != stOK || rc.due != rc.sent && rc.sent-rc.due > time.Millisecond {
			t.Fatalf("op %d: %+v", i, rc)
		}
	}
	short := newRunner(fs, nil, 1, time.Now())
	if short.closedLoop(2, time.Second, sliceSource(make([]op, 3))) {
		t.Error("closed loop with 3 operations and 1 s to fill did not report running out")
	}
}

// sliceSource serves ops in order, then runs out.
func sliceSource(ops []op) func(n int) []op {
	return func(n int) []op {
		n = min(n, len(ops))
		out := ops[:n]
		ops = ops[n:]
		return out
	}
}

// TestClosedLoopCrossesBlocks: operations drawn over several blocks keep
// their generated order and their indices (which name the values
// written).
func TestClosedLoopCrossesBlocks(t *testing.T) {
	ops := make([]op, 3*blockOps+5)
	for i := range ops {
		ops[i] = op{write: true, key: int64(i % 7)}
	}
	fs := &fakeStore{}
	r := newRunner(fs, nil, 7, time.Now())
	if r.closedLoop(3, time.Minute, sliceSource(ops)) {
		t.Fatal("closed loop did not report running out")
	}
	if len(r.ops) != len(ops) {
		t.Fatalf("issued %d of %d operations", len(r.ops), len(ops))
	}
	for i, rc := range r.recs {
		if rc.status != stOK || rc.val.Val != int64(i)+1 || r.ops[i].key != int64(i%7) {
			t.Fatalf("op %d: %+v key %d", i, rc, r.ops[i].key)
		}
	}
}
