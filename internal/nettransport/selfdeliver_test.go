package nettransport

import (
	"sync"
	"testing"
	"time"

	"churnreg/internal/abd"
	"churnreg/internal/core"
	"churnreg/internal/esyncreg"
)

// selfRecorder is a protocol node that records the sequence numbers of
// the ReadMsgs delivered to it, in delivery order, on a buffered channel.
// followUp, when non-zero, is the RSN whose delivery makes the node send
// itself one more message (RSN followUp+1) from inside the handler. hold,
// when set, parks the handler of RSN 1 until it is closed.
type selfRecorder struct {
	env       core.Env
	delivered int // loop-goroutine only
	seen      chan core.ReadSeq
	followUp  core.ReadSeq
	hold      chan struct{}
}

func (r *selfRecorder) Start()                        {}
func (r *selfRecorder) Active() bool                  { return true }
func (r *selfRecorder) Snapshot() core.VersionedValue { return core.VersionedValue{} }

func (r *selfRecorder) Deliver(from core.ProcessID, m core.Message) {
	rm, ok := m.(core.ReadMsg)
	if !ok {
		return
	}
	r.delivered++
	r.seen <- rm.RSN
	if r.hold != nil && rm.RSN == 1 {
		<-r.hold
	}
	if r.followUp != 0 && rm.RSN == r.followUp {
		r.env.Send(r.env.ID(), core.ReadMsg{From: r.env.ID(), RSN: rm.RSN + 1})
	}
}

// startRecorder runs one bootstrap transport hosting a selfRecorder.
func startRecorder(t *testing.T, mailbox int, followUp core.ReadSeq, buffered int) (*Transport, *selfRecorder) {
	t.Helper()
	rec := &selfRecorder{seen: make(chan core.ReadSeq, buffered), followUp: followUp}
	tr, err := New(Config{
		ID:         1,
		ListenAddr: "127.0.0.1:0",
		N:          1,
		Delta:      5,
		MailboxLen: mailbox,
		Factory: func(env core.Env, _ core.SpawnContext) core.Node {
			rec.env = env
			return rec
		},
		Bootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Start(nil)
	return tr, rec
}

// TestSelfPathNeedsNoTimer runs one-node clusters whose tick is an hour:
// a write and a read still complete at once, because every message the
// node sends itself is delivered without any timer.
func TestSelfPathNeedsNoTimer(t *testing.T) {
	for _, proto := range []struct {
		name    string
		factory core.NodeFactory
	}{
		{"esync", esyncreg.Factory(esyncreg.Options{})},
		{"abd", abd.Factory()},
	} {
		t.Run(proto.name, func(t *testing.T) {
			tr, err := New(Config{
				ID:         1,
				ListenAddr: "127.0.0.1:0",
				N:          1,
				Delta:      5,
				Tick:       time.Hour,
				Factory:    proto.factory,
				Bootstrap:  true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			tr.Start(nil)
			begin := time.Now()
			if _, err := tr.WriteKey(3, 8, opTimeout); err != nil {
				t.Fatalf("write: %v", err)
			}
			v, err := tr.ReadKey(3, opTimeout)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if v.Val != 8 || v.SN != 1 {
				t.Fatalf("read %v, want ⟨8,#1⟩", v)
			}
			if took := time.Since(begin); took > opTimeout/10 {
				t.Fatalf("write+read took %v; the self path should not wait on a tick", took)
			}
			tr.mu.Lock()
			pending := len(tr.timers)
			tr.mu.Unlock()
			if pending != 0 {
				t.Fatalf("tracked timers = %d after a one-node write and read, want 0", pending)
			}
		})
	}
}

// TestSelfSendBurstBeyondMailbox has one handler send itself far more
// messages than the mailbox holds. The loop must not deadlock on its own
// mailbox, nothing may be delivered before the handler returns, delivery
// must follow send order — a self-send made while draining included —
// and no enqueue may have stalled.
func TestSelfSendBurstBeyondMailbox(t *testing.T) {
	const mailbox = 4
	const burst = 10 * mailbox
	tr, rec := startRecorder(t, mailbox, burst, burst+1)
	defer tr.Close()

	early := make(chan int, 1)
	if err := tr.Invoke(func(core.Node) {
		for i := 1; i <= burst; i++ {
			tr.Send(1, core.ReadMsg{From: 1, RSN: core.ReadSeq(i)})
		}
		early <- rec.delivered
	}); err != nil {
		t.Fatal(err)
	}
	if n := <-early; n != 0 {
		t.Fatalf("%d self-deliveries ran inside the sending handler, want 0", n)
	}
	deadline := time.After(opTimeout)
	for want := core.ReadSeq(1); want <= burst+1; want++ {
		select {
		case got := <-rec.seen:
			if got != want {
				t.Fatalf("self-delivery %d carried RSN %d: out of send order", want, got)
			}
		case <-deadline:
			t.Fatalf("only %d of %d self-deliveries arrived", want-1, burst+1)
		}
	}
	if stalls := tr.Stats().MailboxStalls.Load(); stalls != 0 {
		t.Fatalf("MailboxStalls = %d, want 0: self-deliveries must bypass the mailbox", stalls)
	}
}

// TestOffLoopSelfSendsWakeTheLoop sends to self from several goroutines
// at once, none of them the loop: every message must be delivered (an
// idle loop is woken, not left waiting for an unrelated task), and each
// sender's messages must arrive in that sender's order.
func TestOffLoopSelfSendsWakeTheLoop(t *testing.T) {
	const senders, each = 4, 200
	tr, rec := startRecorder(t, 0, 0, senders*each)
	defer tr.Close()

	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				tr.Send(1, core.ReadMsg{From: 1, RSN: core.ReadSeq(g*each + i)})
			}
		}(g)
	}
	wg.Wait()
	last := make([]core.ReadSeq, senders)
	deadline := time.After(opTimeout)
	for n := 0; n < senders*each; n++ {
		select {
		case rsn := <-rec.seen:
			g := int(rsn-1) / each
			if rsn <= last[g] {
				t.Fatalf("sender %d: RSN %d delivered after %d", g, rsn, last[g])
			}
			last[g] = rsn
		case <-deadline:
			t.Fatalf("only %d of %d off-loop self-sends delivered", n, senders*each)
		}
	}
}

// TestCloseDropsQueuedSelfDeliveries closes a transport while its loop
// is midway through draining a burst of self-deliveries (parked in the
// first one's handler): Close must return, none of the rest may run,
// later sends must not queue, and no goroutine may outlive the
// transport.
func TestCloseDropsQueuedSelfDeliveries(t *testing.T) {
	checkLeaks := grabGoroutineBaseline(t)
	const queued = 16
	tr, rec := startRecorder(t, 0, 0, queued)
	rec.hold = make(chan struct{})

	if err := tr.Invoke(func(core.Node) {
		for i := 1; i <= queued; i++ {
			tr.Send(1, core.ReadMsg{From: 1, RSN: core.ReadSeq(i)})
		}
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-rec.seen: // the loop is now parked delivering RSN 1
	case <-time.After(opTimeout):
		t.Fatal("first self-delivery never ran")
	}
	closed := make(chan struct{})
	go func() {
		tr.Close()
		close(closed)
	}()
	<-tr.quit
	close(rec.hold)
	select {
	case <-closed:
	case <-time.After(opTimeout):
		t.Fatal("Close did not return")
	}
	if rec.delivered != 1 {
		t.Fatalf("%d self-deliveries ran, want only the 1 in progress at Close", rec.delivered)
	}
	tr.Send(1, core.ReadMsg{From: 1, RSN: 99})
	tr.Broadcast(core.ReadMsg{From: 1, RSN: 100})
	tr.selfMu.Lock()
	left := len(tr.selfQ)
	tr.selfMu.Unlock()
	if left != 0 {
		t.Fatalf("%d self-deliveries queued on a closed transport, want 0", left)
	}
	checkLeaks()
}
