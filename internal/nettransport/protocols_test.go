package nettransport

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"churnreg/internal/abd"
	"churnreg/internal/core"
	"churnreg/internal/multiwriter"
	"churnreg/internal/sim"
	"churnreg/internal/spec"
)

// pipelinedLoad drives concurrent, pipelined operations against a
// meshed cluster and returns the client-observed history: writers
// goroutines each issue writesPer writes through ts[0] (the one writer
// process, as both single-writer protocols require), while readers
// goroutines each issue readsPer reads at random nodes, all over keys
// registers. History time is microseconds since the load began; client
// intervals enclose the true operation intervals, so the check is sound.
func pipelinedLoad(t *testing.T, ts []*Transport, keys, writers, writesPer, readers, readsPer int) *spec.History {
	t.Helper()
	start := time.Now()
	now := func() sim.Time { return sim.Time(time.Since(start).Microseconds()) }
	h := spec.NewHistory(core.VersionedValue{Val: 0, SN: 0})
	var (
		hmu  sync.Mutex
		wg   sync.WaitGroup
		errs = make(chan error, writers+readers)
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < writesPer; i++ {
				k := core.RegisterID(rng.Intn(keys))
				val := core.Value(1_000_000*(w+1) + i)
				hmu.Lock()
				op := h.BeginWriteKey(ts[0].ID(), k, now())
				hmu.Unlock()
				vv, err := ts[0].WriteKey(k, val, opTimeout)
				end := now()
				hmu.Lock()
				if err != nil {
					h.Abandon(op)
				} else {
					h.CompleteWrite(op, end, vv)
				}
				hmu.Unlock()
				if err != nil {
					errs <- fmt.Errorf("write %v=%d: %w", k, val, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < readsPer; i++ {
				tr := ts[rng.Intn(len(ts))]
				k := core.RegisterID(rng.Intn(keys))
				hmu.Lock()
				op := h.BeginReadKey(tr.ID(), k, now())
				hmu.Unlock()
				v, err := tr.ReadKey(k, opTimeout)
				end := now()
				hmu.Lock()
				if err != nil {
					h.Abandon(op)
				} else {
					h.CompleteRead(op, end, v)
				}
				hmu.Unlock()
				if err != nil {
					errs <- fmt.Errorf("read %v at %v: %w", k, tr.ID(), err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	return h
}

// checkRegularHistory fails the test on any regularity violation and on
// a history whose completed writes do not carry distinct, exact ⟨v, sn⟩.
func checkRegularHistory(t *testing.T, h *spec.History) {
	t.Helper()
	if err := h.ValidateWrites(); err != nil {
		t.Fatalf("write history: %v", err)
	}
	vs := h.CheckRegular()
	for i, v := range vs {
		if i == 5 {
			t.Errorf("... and %d more", len(vs)-5)
			break
		}
		t.Errorf("regularity violation: %v", v)
	}
	c := h.Counts()
	t.Logf("%d writes and %d reads completed", c.WritesCompleted, c.ReadsCompleted)
}

// TestABDPipelinedOpsOverTCP runs the static ABD register on a 3-node
// mesh: pipelined writes from one process and concurrent reads at every
// process over a few keys must form a regular history, and reads whose
// quorum replies agree must take the one-round fast path.
func TestABDPipelinedOpsOverTCP(t *testing.T) {
	ts := startCluster(t, 3, abd.Factory(), 5)
	for _, tr := range ts {
		waitPeerCount(t, tr, 2)
	}
	h := pipelinedLoad(t, ts, 3, 4, 25, 6, 40)
	checkRegularHistory(t, h)

	var fast, slow uint64
	for _, tr := range ts {
		counts := make(chan [2]uint64, 1)
		if err := tr.Invoke(func(n core.Node) {
			f, s := n.(core.ReadPathCounter).ReadPathCounts()
			counts <- [2]uint64{f, s}
		}); err != nil {
			t.Fatal(err)
		}
		c := <-counts
		fast += c[0]
		slow += c[1]
	}
	t.Logf("abd read paths: %d fast, %d slow", fast, slow)
	if fast == 0 {
		t.Fatal("no abd read took the one-round fast path")
	}
}

// TestMultiwriterPipelinedOpsOverTCP runs the §7 multi-writer register on
// a 3-node mesh: node 1 claims the write token, then pipelines writes
// while every process serves concurrent local reads over a few keys; the
// history must be regular. Local reads are regular only while every
// WRITE arrives within δ, so δ is 100 ms: far above loopback latency
// plus scheduling delay on a loaded, race-instrumented test host.
func TestMultiwriterPipelinedOpsOverTCP(t *testing.T) {
	ts := startCluster(t, 3, multiwriter.Factory(), 100)
	for _, tr := range ts {
		waitPeerCount(t, tr, 2)
	}
	won := make(chan bool, 1)
	errc := make(chan error, 1)
	if err := ts[0].Invoke(func(n core.Node) {
		if err := n.(*multiwriter.Node).Acquire(func(ok bool) { won <- ok }); err != nil {
			errc <- err
		}
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-won:
		if !ok {
			t.Fatal("node 1 lost an uncontended token claim")
		}
	case err := <-errc:
		t.Fatalf("acquire: %v", err)
	case <-time.After(opTimeout):
		t.Fatal("token claim never resolved")
	}
	h := pipelinedLoad(t, ts, 3, 4, 10, 6, 40)
	checkRegularHistory(t, h)
}
