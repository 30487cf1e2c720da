package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"churnreg/client"
	"churnreg/internal/core"
	"churnreg/internal/placement"
	"churnreg/internal/wire"
)

// Theoretical transport frames per operation for esync with n=3, R=3,
// counting every frame a server flushes (self-deliveries never touch the
// network): a read is READ×2, REPLY×2, reply-ACK×2 and the reply to the
// client; a write adds WRITE×2 and ACK×2 to the read's six, plus the
// reply.
const (
	theoryFramesPerRead  = 7
	theoryFramesPerWrite = 11
)

// phaseOps is how many operations each frame-counting phase issues.
const phaseOps = 300

// frameCounts runs a read-only phase and a write-only phase on the idle
// cluster, one operation at a time, and divides the servers' flushed
// frames over each by its operation count.
func (cl *cluster) frameCounts() (map[string]float64, error) {
	flushed := func() (float64, error) {
		var sum float64
		for _, s := range cl.live {
			m, err := s.metrics()
			if err != nil {
				return 0, err
			}
			sum += m["regserve_transport_flushed_frames_total"]
		}
		return sum, nil
	}
	out := map[string]float64{}
	for _, write := range []bool{false, true} {
		before, err := flushed()
		if err != nil {
			return nil, err
		}
		for i := 0; i < phaseOps; i++ {
			key := int64(i % cl.wl.keys)
			if write {
				_, err = cl.c.Write(key, -int64(cl.wl.keys)-int64(i)-1)
			} else {
				_, err = cl.c.Read(key)
			}
			if err != nil {
				return nil, fmt.Errorf("frame-count phase: %w", err)
			}
		}
		// Let the replies and acknowledgements that trail each operation's
		// completion go out before reading the counters again.
		time.Sleep(100 * time.Millisecond)
		after, err := flushed()
		if err != nil {
			return nil, err
		}
		name := "nettransport.frames_per_read"
		if write {
			name = "nettransport.frames_per_write"
		}
		out[name] = (after - before) / phaseOps
	}
	return out, nil
}

// singleNodeReadMs starts a one-process cluster and returns the median of
// sequential reads of one key, the floor under read latency: one quorum
// round whose every message is a self-delivery.
func singleNodeReadMs(bin string) (float64, error) {
	s, err := startServer(bin, 1, spawnOpts{n: 1, bootstrap: true})
	if err != nil {
		return 0, err
	}
	defer s.kill()
	if err := s.waitActive(0, 30*time.Second); err != nil {
		return 0, err
	}
	c, err := client.Dial(client.Config{Seeds: []string{s.listen}, OpTimeout: opTimeout})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if _, err := c.Write(1, 1); err != nil {
		return 0, err
	}
	lat := make([]float64, 0, phaseOps)
	for i := 0; i < phaseOps; i++ {
		t0 := time.Now()
		if _, err := c.Read(1); err != nil {
			return 0, err
		}
		lat = append(lat, ms(time.Since(t0)))
	}
	return median(lat), nil
}

// layerBatch is how many calls one timed batch of a layer micro-measure
// makes; timing whole batches keeps the clock's own cost out of
// nanosecond-scale figures.
const layerBatch = 1000

// batchSpan is one timed batch, kept for the span file.
type batchSpan struct {
	name       string
	start, end time.Time
	calls      int
}

// placementGroupNs times placement.Build(..).Group(key) over the run's
// own keys against the cluster's final membership, returning the median
// per-call time of layerBatch-call batches.
func placementGroupNs(ops []op, members []int64, spans *[]batchSpan) float64 {
	ids := make([]core.ProcessID, len(members))
	for i, m := range members {
		ids[i] = core.ProcessID(m)
	}
	// Server-side constants: serverFlags' -shards 16 -replication 3.
	v := placement.Build(placement.Config{Shards: 16, Replication: 3}, ids)
	var per []float64
	sink := 0 // consumes each result so no call is optimised away
	for lo := 0; lo+layerBatch <= len(ops); lo += layerBatch {
		t0 := time.Now()
		for _, o := range ops[lo : lo+layerBatch] {
			sink += len(v.Group(core.RegisterID(o.key)))
		}
		t1 := time.Now()
		*spans = append(*spans, batchSpan{"placement.group", t0, t1, layerBatch})
		per = append(per, float64(t1.Sub(t0).Nanoseconds())/layerBatch)
	}
	if sink == 0 {
		return 0
	}
	return median(per)
}

// wireCosts encodes each recorded operation's FORWARD request and
// FORWARDED reply with wire.AppendFrameBytes and decodes them back with
// wire.Scanner, returning the median per-frame encode and decode times,
// the bytes both frames of an operation take, and heap allocations per
// operation across encode and decode.
func wireCosts(ops []op, recs []rec, spans *[]batchSpan) (encNs, decNs, bytesPerOp, allocsPerOp float64, err error) {
	frames := make([]wire.Frame, 0, 2*len(ops))
	for i, o := range ops {
		r := recs[i]
		if r.status != stOK {
			continue
		}
		req := core.ForwardMsg{Op: core.OpID(i + 1), Reg: core.RegisterID(o.key), IsWrite: o.write}
		if o.write {
			req.Val = core.Value(i + 1)
		}
		rep := core.ForwardedMsg{From: core.ProcessID(r.served), Op: core.OpID(i + 1), Reg: core.RegisterID(o.key),
			Value: core.VersionedValue{Val: core.Value(r.val.Val), SN: core.SeqNum(r.val.SN)}}
		frames = append(frames, wire.Frame{Type: wire.FrameMsg, Msg: req}, wire.Frame{Type: wire.FrameMsg, Msg: rep})
	}
	n := len(frames) / layerBatch * layerBatch
	if n == 0 {
		return 0, 0, 0, 0, fmt.Errorf("too few operations (%d frames) to time the wire codec", len(frames))
	}
	frames = frames[:n]
	batches := n / layerBatch
	timed := make([]batchSpan, 0, 2*batches)
	// Sized up front so buffer growth adds no allocations to the count.
	buf := make([]byte, 0, 64*n)
	rd := bytes.NewReader(nil)
	sc := wire.NewScanner(rd)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for lo := 0; lo < n; lo += layerBatch {
		t0 := time.Now()
		for _, f := range frames[lo : lo+layerBatch] {
			if buf, err = wire.AppendFrameBytes(buf, f); err != nil {
				return 0, 0, 0, 0, err
			}
		}
		timed = append(timed, batchSpan{"wire.encode", t0, time.Now(), layerBatch})
	}
	rd.Reset(buf)
	for lo := 0; lo < n; lo += layerBatch {
		t0 := time.Now()
		for i := 0; i < layerBatch; i++ {
			if _, err = sc.Next(); err != nil {
				return 0, 0, 0, 0, fmt.Errorf("decode frame %d: %w", lo+i, err)
			}
		}
		timed = append(timed, batchSpan{"wire.decode", t0, time.Now(), layerBatch})
	}
	runtime.ReadMemStats(&ms1)
	*spans = append(*spans, timed...)
	var enc, dec []float64
	for _, b := range timed {
		per := float64(b.end.Sub(b.start).Nanoseconds()) / layerBatch
		if b.name == "wire.encode" {
			enc = append(enc, per)
		} else {
			dec = append(dec, per)
		}
	}
	ops2 := float64(n / 2)
	return median(enc), median(dec), float64(len(buf)) / ops2, float64(ms1.Mallocs-ms0.Mallocs) / ops2, nil
}
