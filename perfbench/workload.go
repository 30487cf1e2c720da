package main

import (
	"fmt"
	"math/rand"
	"time"
)

// workload is one traffic mix the benchmark drives against the cluster.
type workload struct {
	name string
	// keys is the keyspace size; every key is written once during set-up.
	keys int
	// zipf is the key-popularity skew (0 = uniform).
	zipf float64
	// writeFrac is the share of operations that are writes.
	writeFrac float64
	// rate is the open-loop arrival rate in ops/s; 0 selects a closed
	// loop with inflight operations outstanding.
	rate     int
	inflight int
	// churn replaces processes on a fixed schedule during the window.
	churn bool
}

// workloads are the benchmark's mixes, by name.
var workloads = map[string]workload{
	"read_mostly":    {name: "read_mostly", keys: 10000, zipf: 1.1, writeFrac: 0.05, rate: 2000},
	"write_saturate": {name: "write_saturate", keys: 1000, writeFrac: 0.5, inflight: 32},
	"churn":          {name: "churn", keys: 1000, writeFrac: 0.2, rate: 1000, churn: true},
}

// op is one generated operation. Write values are unique across the run
// (the operation's index plus one), so an ambiguous write can be resolved
// later by the value a read observed.
type op struct {
	write bool
	key   int64
	due   time.Duration // from the start of warm-up; open loop only
}

// opSource draws a workload's operations from its seed, in order.
// Open-loop operations are due on a fixed schedule at the workload's
// rate; closed-loop ones are issued back to back, so they carry no due
// time.
type opSource struct {
	wl   workload
	rng  *rand.Rand
	perm []int
	zipf *rand.Zipf
	step time.Duration // between due times; 0 in a closed loop
	n    int           // operations drawn so far
}

func newOpSource(wl workload, seed int64) *opSource {
	s := &opSource{wl: wl, rng: rand.New(rand.NewSource(seed))}
	s.perm = s.rng.Perm(wl.keys)
	if wl.zipf > 0 {
		s.zipf = rand.NewZipf(s.rng, wl.zipf, 1, uint64(wl.keys-1))
	}
	if wl.rate > 0 {
		s.step = time.Second / time.Duration(wl.rate)
	}
	return s
}

// next draws the following n operations.
func (s *opSource) next(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		var k int
		if s.zipf != nil {
			k = s.perm[s.zipf.Uint64()]
		} else {
			k = s.rng.Intn(s.wl.keys)
		}
		ops[i] = op{write: s.rng.Float64() < s.wl.writeFrac, key: int64(k), due: time.Duration(s.n) * s.step}
		s.n++
	}
	return ops
}

// genOps draws an open-loop run's operations: those due in the first
// warm stretch are warm-up, the following window is measured.
func genOps(wl workload, seed int64, warm, window time.Duration) []op {
	src := newOpSource(wl, seed)
	return src.next(int((warm + window) / src.step))
}

// churnPeriod spaces the churn workload's steps.
const churnPeriod = 2500 * time.Millisecond

// churnStep is one step of the churn schedule, at an offset into the
// measured window.
type churnStep struct {
	at time.Duration
	// kill marks the run's one crash: the server at index victim (oldest
	// first) is SIGKILLed and a replacement joins at once. Every other
	// step is a join followed by the oldest server's graceful /leave.
	kill   bool
	victim int
}

// churnSchedule lays out the window's churn: a step every churnPeriod
// from half a period in, the one nearest the window's middle being the
// kill. The seed picks the kill's victim.
func churnSchedule(seed int64, window time.Duration) []churnStep {
	var steps []churnStep
	for t := churnPeriod / 2; t < window; t += churnPeriod {
		steps = append(steps, churnStep{at: t})
	}
	if len(steps) > 0 {
		mid := &steps[len(steps)/2]
		mid.kill = true
		mid.victim = rand.New(rand.NewSource(seed)).Intn(clusterN)
	}
	return steps
}

// lookupWorkload resolves a workload name.
func lookupWorkload(name string) (workload, error) {
	wl, ok := workloads[name]
	if !ok {
		return workload{}, fmt.Errorf("unknown workload %q (want read_mostly, write_saturate or churn)", name)
	}
	return wl, nil
}
