package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestGroupOf(t *testing.T) {
	for fn, want := range map[string]string{
		"churnreg/internal/wire.(*Scanner).Next":             "wire",
		"churnreg/internal/nettransport.(*peer).drain":       "nettransport",
		"churnreg/internal/esyncreg.(*Node).OnMessage":       "esyncreg",
		"churnreg/internal/shard.(*Node).serveForward.func1": "shard",
		"churnreg/internal/nodeops.Read":                     "nodeops",
		"churnreg/internal/placement.(*View).Group":          "other",
		"runtime.mallocgc":                                   "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":       "runtime",
		"runtime.futex":                     "syscall",
		"internal/runtime/syscall.Syscall6": "syscall",
		"syscall.Syscall":                   "syscall",
		"net.(*conn).Write":                 "other",
		"main.main":                         "other",
		"vendor/golang.org/x/net/http2/hpack.(*Decoder).Write": "other",
	} {
		if got := groupOf(fn); got != want {
			t.Errorf("groupOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func burnCPU(d time.Duration) int {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 100000; i++ {
			x += i * i
		}
	}
	return x
}

var burnSink int

// TestSelfTimesDecodesRuntimeProfile decodes a CPU profile the Go runtime
// wrote and finds the spinning function's self time in it.
func TestSelfTimesDecodesRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	burnSink = burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()

	self, err := selfTimes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, burn int64
	for fn, v := range self {
		total += v
		if strings.HasSuffix(fn, ".burnCPU") {
			burn += v
		}
	}
	if total <= 0 {
		t.Fatalf("no CPU time decoded: %v", self)
	}
	if burn*2 < total {
		t.Errorf("burnCPU has %d of %d ns self time; want the majority", burn, total)
	}
	groups := groupSelf(self)
	var sum int64
	for _, v := range groups {
		sum += v
	}
	if sum != total {
		t.Errorf("groups sum to %d, want %d", sum, total)
	}
}

func TestSelfTimesRejectsGarbage(t *testing.T) {
	if _, err := selfTimes([]byte{0xff, 0xff, 0xff}); err == nil {
		t.Error("garbage decoded without error")
	}
}
