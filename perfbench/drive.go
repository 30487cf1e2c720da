package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"churnreg/client"
)

// Operation outcomes as recorded.
const (
	stNone      uint8 = iota // never issued
	stOK                     // completed successfully
	stFailed                 // failed and provably not applied (refused, unroutable, or any read failure)
	stAmbiguous              // a write whose fate is unknown
	stSkipped                // a write to a key poisoned by an earlier ambiguous write, not issued
)

// rec is what the generator observed of one operation; times are offsets
// from the run's origin (the start of warm-up).
type rec struct {
	due, sent, end time.Duration
	val            client.Versioned
	served         int64
	status         uint8
}

// store is the slice of client.Client the runner drives; tests
// substitute a scripted fake.
type store interface {
	Write(key, val int64) (client.Versioned, error)
	ReadServed(key int64) (client.Versioned, int64, error)
}

// runner drives one run's operations through one client and records each
// into its own slot, so recording takes no lock.
type runner struct {
	c      store
	ops    []op
	recs   []rec
	origin time.Time
	// poisoned marks keys with an ambiguous write: no later write to them
	// is issued, so the ambiguous one can be resolved post hoc.
	poisoned []atomic.Bool
}

func newRunner(c store, ops []op, keys int, origin time.Time) *runner {
	return &runner{c: c, ops: ops, recs: make([]rec, len(ops)), origin: origin, poisoned: make([]atomic.Bool, keys)}
}

func (r *runner) now() time.Duration { return time.Since(r.origin) }

// exec issues operation i and records its outcome.
func (r *runner) exec(i int) { r.do(&r.ops[i], &r.recs[i], int64(i)+1) }

// do issues o, writing val if it is a write, and records its outcome
// in rc.
func (r *runner) do(o *op, rc *rec, val int64) {
	rc.sent = r.now()
	if o.write {
		if r.poisoned[o.key].Load() {
			rc.status = stSkipped
			return
		}
		v, err := r.c.Write(o.key, val)
		rc.end = r.now()
		switch {
		case err == nil:
			rc.val, rc.status = v, stOK
		case errors.Is(err, client.ErrUnacknowledged):
			r.poisoned[o.key].Store(true)
			rc.status = stAmbiguous
		default:
			rc.status = stFailed
		}
		return
	}
	v, served, err := r.c.ReadServed(o.key)
	rc.end = r.now()
	if err != nil {
		rc.status = stFailed
		return
	}
	rc.val, rc.served, rc.status = v, served, stOK
}

// openLoop issues every operation at its due time, each on its own
// goroutine so a slow operation never delays the next one's send, and
// returns once all have ended.
func (r *runner) openLoop() {
	var wg sync.WaitGroup
	for i := range r.ops {
		sleepUntil(r.origin, r.ops[i].due)
		r.recs[i].due = r.ops[i].due
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.exec(i)
		}(i)
	}
	wg.Wait()
}

// blockOps is how many operations a closed loop draws from its source
// at a time.
const blockOps = 4096

// opBlock is a run of a closed loop's operations and their records.
type opBlock struct {
	ops  []op
	recs []rec
}

// closedLoop keeps inflight operations outstanding until the run's end,
// each worker issuing its next operation when the previous one returns.
// Operations are taken in the order src draws them, blockOps at a time as
// the loop reaches them, so memory grows with the operations issued
// rather than with a bound on them; src returns fewer than asked only
// when it has run out. The issued operations become r.ops and r.recs. It
// reports false if src ran out before the end.
func (r *runner) closedLoop(inflight int, end time.Duration, src func(n int) []op) bool {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		blocks  []*opBlock
		drained bool
	)
	// block returns the block holding operation i, drawing blocks up to
	// it, or nil once src has run out before i.
	block := func(i int) *opBlock {
		mu.Lock()
		defer mu.Unlock()
		for !drained && len(blocks) <= i/blockOps {
			ops := src(blockOps)
			if len(ops) > 0 {
				blocks = append(blocks, &opBlock{ops: ops, recs: make([]rec, len(ops))})
			}
			drained = len(ops) < blockOps
		}
		if b := i / blockOps; b < len(blocks) && i%blockOps < len(blocks[b].ops) {
			return blocks[b]
		}
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cur *opBlock
			curIdx := -1
			for r.now() < end {
				i := int(next.Add(1) - 1)
				if i/blockOps != curIdx {
					if cur = block(i); cur == nil {
						return
					}
					curIdx = i / blockOps
				}
				j := i % blockOps
				if j >= len(cur.ops) {
					return
				}
				cur.recs[j].due = r.now()
				r.do(&cur.ops[j], &cur.recs[j], int64(i)+1)
			}
		}()
	}
	wg.Wait()
	// Every claimed operation was issued unless src ran out before it.
	n, drawn := int(next.Load()), 0
	for _, b := range blocks {
		drawn += len(b.ops)
	}
	ok := n <= drawn
	n = min(n, drawn)
	r.ops, r.recs = make([]op, n), make([]rec, n)
	for k, b := range blocks {
		copy(r.ops[k*blockOps:], b.ops)
		copy(r.recs[k*blockOps:], b.recs)
		blocks[k] = nil
	}
	return ok
}

// sleepUntil blocks until origin+at. It sleeps in nanosleep(2) rather
// than time.Sleep: the Go timer rounds sub-millisecond waits up to the
// next millisecond tick here, which would make the open loop run late by
// about half its own send interval.
func sleepUntil(origin time.Time, at time.Duration) {
	for {
		d := at - time.Since(origin)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}
