package nettransport

// White-box tests for the coalescing write path: drain is driven directly
// with scripted net.Conns, so batch formation, partial-write failure,
// inflight requeue, and HELLO ordering are all checked deterministically —
// no real sockets, no timing.

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"churnreg/internal/core"
	"churnreg/internal/esyncreg"
	"churnreg/internal/sim"
	"churnreg/internal/wire"
)

// scriptConn is a net.Conn whose Write appends to a buffer until failAfter
// bytes have been accepted in total; the write that crosses the budget
// takes the partial prefix and returns an error, exactly the shape of a
// mid-batch TCP failure. failAfter < 0 never fails.
type scriptConn struct {
	mu        sync.Mutex
	buf       bytes.Buffer
	failAfter int
	closed    bool
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	if c.failAfter >= 0 {
		room := c.failAfter - c.buf.Len()
		if room < len(p) {
			if room > 0 {
				c.buf.Write(p[:room])
			}
			return max(room, 0), errors.New("scripted connection failure")
		}
	}
	return c.buf.Write(p)
}

func (c *scriptConn) bytesWritten() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf.Bytes()...)
}

func (c *scriptConn) Read(p []byte) (int, error) { return 0, net.ErrClosed }
func (c *scriptConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}
func (c *scriptConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (c *scriptConn) SetDeadline(t time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(t time.Time) error { return nil }

// newDrainHarness builds an inert transport (no Start: no goroutines) plus
// a peer whose queue holds payloads numbered 0..frames-1.
func newDrainHarness(t *testing.T, frames int, cfg func(*Config)) (*Transport, *peer, [][]byte) {
	t.Helper()
	c := Config{
		ID:         1,
		ListenAddr: "127.0.0.1:0",
		N:          3,
		Delta:      5,
		Factory:    esyncreg.Factory(esyncreg.Options{}),
		Bootstrap:  true,
	}
	if cfg != nil {
		cfg(&c)
	}
	tr, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	p := &peer{addr: "test", id: 2, out: make(chan []byte, tr.cfg.QueueLen), quit: make(chan struct{})}
	payloads := make([][]byte, 0, frames)
	for i := 0; i < frames; i++ {
		payload, err := wire.EncodeFrame(wire.Frame{
			Type: wire.FrameMsg,
			From: 1,
			Msg:  core.WriteMsg{From: 1, Value: core.VersionedValue{Val: core.Value(i), SN: core.SeqNum(i + 1)}, Reg: 7, Op: core.OpID(i + 1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, payload)
		p.out <- payload
	}
	return tr, p, payloads
}

// drainUntilIdle runs drain against conn, releasing it via the peer's quit
// channel once the queue has been consumed (drain otherwise blocks waiting
// for more frames).
func drainUntilIdle(t *testing.T, tr *Transport, p *peer, conn net.Conn) bool {
	t.Helper()
	done := make(chan bool, 1)
	go func() { done <- p.drain(tr, conn, make(chan struct{})) }()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case redial := <-done:
			return redial
		case <-deadline:
			t.Fatal("drain did not settle")
		case <-time.After(time.Millisecond):
			if len(p.out) == 0 {
				p.stop() // all consumed: ask drain to exit cleanly
			}
		}
	}
}

// scanAll decodes every complete frame in b, tolerating a truncated tail
// (the remains of a partial write).
func scanAll(t *testing.T, b []byte) []wire.Frame {
	t.Helper()
	sc := wire.NewScanner(bytes.NewReader(b))
	var out []wire.Frame
	for {
		f, err := sc.Next()
		if err != nil {
			return out
		}
		out = append(out, f)
	}
}

func TestDrainCoalescesQueueIntoFewWrites(t *testing.T) {
	const frames = 100
	tr, p, _ := newDrainHarness(t, frames, nil)
	conn := &scriptConn{failAfter: -1}
	if redial := drainUntilIdle(t, tr, p, conn); redial {
		t.Fatal("clean drain asked for a redial")
	}
	got := scanAll(t, conn.bytesWritten())
	if len(got) != frames+1 {
		t.Fatalf("scanned %d frames, want %d (HELLO + %d msgs)", len(got), frames+1, frames)
	}
	if got[0].Type != wire.FrameHello {
		t.Fatalf("first frame = %v, want HELLO", got[0].Type)
	}
	// All 100 frames were queued before the connection existed, so the
	// batcher must have amortized aggressively: at most ceil(100/64)+1
	// flushes, hence a coalescing factor well above 1.
	writes := tr.stats.FlushWrites.Load()
	if writes == 0 || writes > 3 {
		t.Fatalf("FlushWrites = %d, want 1..3 for %d pre-queued frames", writes, frames)
	}
	if fpw := tr.stats.FramesPerWrite(); fpw < 2 {
		t.Fatalf("FramesPerWrite = %.1f, want >= 2", fpw)
	}
	if tr.stats.FlushedFrames.Load() != frames {
		t.Fatalf("FlushedFrames = %d, want %d", tr.stats.FlushedFrames.Load(), frames)
	}
	if last := tr.stats.LastBatchFrames.Load(); last == 0 {
		t.Fatal("LastBatchFrames gauge never set")
	}
}

func TestDrainRespectsFrameBudget(t *testing.T) {
	const frames = 10
	tr, p, _ := newDrainHarness(t, frames, func(c *Config) { c.BatchFrames = 4 })
	conn := &scriptConn{failAfter: -1}
	drainUntilIdle(t, tr, p, conn)
	if writes := tr.stats.FlushWrites.Load(); writes != 3 { // 4+4+2
		t.Fatalf("FlushWrites = %d with BatchFrames=4 over %d frames, want 3", writes, frames)
	}
	if last := tr.stats.LastBatchFrames.Load(); last != 2 {
		t.Fatalf("LastBatchFrames = %d, want the final batch of 2", last)
	}
}

func TestDrainPartialWriteRequeuesWholeBatch(t *testing.T) {
	const frames = 8
	// Let the HELLO (small) through, then fail 10 bytes into the first
	// coalesced batch: a partial write of a mid-frame prefix.
	tr, p, payloads := newDrainHarness(t, frames, nil)
	helloLen := 0
	{
		hello, err := wire.EncodeFrame(tr.helloFrame())
		if err != nil {
			t.Fatal(err)
		}
		helloLen = len(wire.FrameBytes(hello))
	}
	conn := &scriptConn{failAfter: helloLen + 10}
	done := make(chan bool, 1)
	go func() { done <- p.drain(tr, conn, make(chan struct{})) }()
	select {
	case redial := <-done:
		if !redial {
			t.Fatal("broken connection should ask for a redial")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not notice the failed write")
	}
	if len(p.inflight) != frames {
		t.Fatalf("inflight holds %d frames after mid-batch death, want the whole batch of %d", len(p.inflight), frames)
	}
	// Reconnect: a fresh conn must carry HELLO first, then every requeued
	// frame, in order, decodable by the canonical scanner.
	conn2 := &scriptConn{failAfter: -1}
	if redial := drainUntilIdle(t, tr, p, conn2); redial {
		t.Fatal("clean drain asked for a redial")
	}
	if len(p.inflight) != 0 {
		t.Fatalf("inflight not cleared after successful retry: %d", len(p.inflight))
	}
	got := scanAll(t, conn2.bytesWritten())
	if len(got) != frames+1 {
		t.Fatalf("retry connection carried %d frames, want %d", len(got), frames+1)
	}
	if got[0].Type != wire.FrameHello {
		t.Fatalf("first frame on reconnect = %v, want HELLO (identity before traffic)", got[0].Type)
	}
	for i, f := range got[1:] {
		want, err := wire.DecodeFrame(payloads[i])
		if err != nil {
			t.Fatal(err)
		}
		if f.Msg.(core.WriteMsg) != want.Msg.(core.WriteMsg) {
			t.Fatalf("requeued frame %d = %+v, want %+v", i, f.Msg, want.Msg)
		}
	}
}

func TestDrainHelloPrecedesRequeuedFrames(t *testing.T) {
	// Even with inflight frames waiting from a dead connection, the new
	// connection's first frame must be HELLO — the remote drops protocol
	// frames from links whose identity it cannot bind.
	tr, p, _ := newDrainHarness(t, 3, nil)
	conn := &scriptConn{} // failAfter 0: every write fails immediately
	done := make(chan bool, 1)
	go func() { done <- p.drain(tr, conn, make(chan struct{})) }()
	if redial := <-done; !redial {
		t.Fatal("want redial after total write failure")
	}
	// The HELLO write itself failed, so nothing reached the wire; the
	// queue still holds the frames. Drain again on a good conn.
	conn2 := &scriptConn{failAfter: -1}
	drainUntilIdle(t, tr, p, conn2)
	got := scanAll(t, conn2.bytesWritten())
	if len(got) == 0 || got[0].Type != wire.FrameHello {
		t.Fatalf("first frame = %+v, want HELLO before batched frames", got)
	}
	if len(got) != 4 {
		t.Fatalf("got %d frames, want HELLO + 3", len(got))
	}
}

func TestMailboxStallCounted(t *testing.T) {
	tr, err := New(Config{
		ID:         1,
		ListenAddr: "127.0.0.1:0",
		N:          3,
		Delta:      5,
		Factory:    esyncreg.Factory(esyncreg.Options{}),
		Bootstrap:  true,
		MailboxLen: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// The loop is not running (no Start), so the first enqueue fills the
	// 1-slot mailbox and the second stalls until Close releases it.
	tr.enqueue(func() {})
	released := make(chan struct{})
	go func() {
		tr.enqueue(func() {})
		close(released)
	}()
	deadline := time.After(5 * time.Second)
	for tr.stats.MailboxStalls.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("mailbox stall never counted")
		case <-time.After(time.Millisecond):
		}
	}
	tr.Close()
	<-released
}

func TestCloseStopsTrackedTimers(t *testing.T) {
	tr, err := New(Config{
		ID:         1,
		ListenAddr: "127.0.0.1:0",
		N:          3,
		Delta:      5,
		Tick:       time.Hour, // timers far in the future: they must be stopped, not awaited
		Factory:    esyncreg.Factory(esyncreg.Options{}),
		Bootstrap:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Send(1, core.TokenMsg{From: 1})    // self-send: queued, no timer
	tr.After(sim.Duration(10), func() {}) // protocol timer: the only one
	tr.Broadcast(core.TokenMsg{From: 1})  // own copy: queued, no timer
	tr.mu.Lock()
	pending := len(tr.timers)
	tr.mu.Unlock()
	if pending != 1 {
		t.Fatalf("tracked timers = %d, want 1 (only After schedules a timer)", pending)
	}
	tr.Close()
	tr.mu.Lock()
	after := tr.timers
	tr.mu.Unlock()
	if after != nil {
		t.Fatalf("timers not released on Close: %d still tracked", len(after))
	}
	// And scheduling after Close is a no-op, not a leak.
	tr.After(sim.Duration(10), func() {})
	tr.mu.Lock()
	if tr.timers != nil {
		t.Fatal("After on a closed transport tracked a timer")
	}
	tr.mu.Unlock()
}
