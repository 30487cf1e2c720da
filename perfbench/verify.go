package main

import (
	"fmt"
	"strings"
	"time"

	"churnreg/client"
	"churnreg/internal/core"
	"churnreg/internal/sim"
	"churnreg/internal/spec"
)

// clientProc is the history's process id for the benchmark's one client:
// all its writes are one writer's, which may pipeline.
const clientProc core.ProcessID = 1

// histTime maps an offset from the run's origin onto the history's
// clock. Set-up writes form each key's baseline at instant 0, so run
// operations start strictly after it.
func histTime(d time.Duration) sim.Time { return sim.Time(d) + 1 }

// verdict is the outcome of checking one run's history.
type verdict struct {
	ambiguous, resolved int
	violations          []string
}

// keyGroups is how many disjoint sets of keys checkHistory checks one
// after another. Every check is per key, so the split leaves the verdict
// unchanged; it bounds the memory the history takes (a 35 s
// write_saturate window holds about a million operations).
const keyGroups = 16

// checkHistory rebuilds the client-observed history and checks per-key
// regularity. initial holds the value each key's set-up write stored.
// Writes the client reported ambiguous stay pending (their keys were
// poisoned, so no later write to them was issued) and are resolved
// against the reads that observed their value; writes that failed
// cleanly and failed reads are abandoned. An error means the history
// broke the write discipline the checker assumes.
func checkHistory(ops []op, recs []rec, initial map[int64]client.Versioned) (verdict, error) {
	var vd verdict
	for g := int64(0); g < keyGroups; g++ {
		if err := checkKeys(ops, recs, initial, func(k int64) bool { return k%keyGroups == g }, &vd); err != nil {
			return vd, err
		}
	}
	return vd, nil
}

// checkKeys checks the history of the keys in selects, adding its
// findings to vd.
func checkKeys(ops []op, recs []rec, initial map[int64]client.Versioned, selects func(int64) bool, vd *verdict) error {
	h := spec.NewHistory(core.VersionedValue{Val: 0, SN: 0})
	for k, v := range initial {
		if selects(k) {
			h.SetInitialKey(core.RegisterID(k), core.VersionedValue{Val: core.Value(v.Val), SN: core.SeqNum(v.SN)})
		}
	}
	type kv struct{ key, val int64 }
	observed := make(map[kv]core.VersionedValue)
	var pending []*spec.Op
	var pendingVal []kv
	for i := range ops {
		o, r := &ops[i], &recs[i]
		if r.status == stNone || r.status == stSkipped || !selects(o.key) {
			continue
		}
		reg := core.RegisterID(o.key)
		if o.write {
			sop := h.BeginWriteKey(clientProc, reg, histTime(r.sent))
			switch r.status {
			case stOK:
				h.CompleteWrite(sop, histTime(r.end), core.VersionedValue{Val: core.Value(r.val.Val), SN: core.SeqNum(r.val.SN)})
			case stAmbiguous:
				pending = append(pending, sop)
				pendingVal = append(pendingVal, kv{o.key, int64(i) + 1})
			default:
				h.Abandon(sop)
			}
			continue
		}
		sop := h.BeginReadKey(clientProc, reg, histTime(r.sent))
		if r.status != stOK {
			h.Abandon(sop)
			continue
		}
		v := core.VersionedValue{Val: core.Value(r.val.Val), SN: core.SeqNum(r.val.SN)}
		h.SetServer(sop, core.ProcessID(r.served))
		h.CompleteRead(sop, histTime(r.end), v)
		observed[kv{o.key, r.val.Val}] = v
	}
	vd.ambiguous += len(pending)
	for i, sop := range pending {
		if v, ok := observed[pendingVal[i]]; ok {
			h.ResolveValue(sop, v)
			vd.resolved++
		}
	}
	if err := h.ValidateWrites(); err != nil {
		return fmt.Errorf("history breaks the write discipline: %w", err)
	}
	for _, v := range h.CheckRegular() {
		vd.violations = append(vd.violations, v.String())
	}
	return nil
}

// summary renders the verdict's first violations for a failure report.
func (vd verdict) summary(max int) string {
	var b strings.Builder
	for i, v := range vd.violations {
		if i == max {
			fmt.Fprintf(&b, "  ... and %d more\n", len(vd.violations)-max)
			break
		}
		fmt.Fprintf(&b, "  %s\n", v)
	}
	return b.String()
}
