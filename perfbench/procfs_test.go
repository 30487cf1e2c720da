package main

import "testing"

func TestParseProcStat(t *testing.T) {
	// The command name holds a space and a parenthesis; fields are counted
	// from the last ')'.
	stat := []byte("4242 (reg serve) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 150 37 0 0 20 0 5 0 99 1000 200 18446744073709551615\n")
	got, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got != 187 {
		t.Errorf("utime+stime = %d, want 187", got)
	}
	if _, err := parseProcStat([]byte("4242 (x) S 1 2")); err == nil {
		t.Error("short stat parsed without error")
	}
}

func TestParseKeyed(t *testing.T) {
	io := []byte("rchar: 100\nwchar: 200\nsyscr: 7\nsyscw: 12345\nread_bytes: 0\n")
	if got, err := parseKeyed(io, "syscw"); err != nil || got != 12345 {
		t.Errorf("syscw = %d, %v", got, err)
	}
	status := []byte("Name:\tregserve\nVmPeak:\t  900000 kB\nVmHWM:\t   43120 kB\nVmRSS:\t   40000 kB\n")
	if got, err := parseKeyed(status, "VmHWM"); err != nil || got != 43120 {
		t.Errorf("VmHWM = %d, %v", got, err)
	}
	if _, err := parseKeyed(status, "VmSwap"); err == nil {
		t.Error("missing key parsed without error")
	}
}

func TestHostSteal(t *testing.T) {
	a, err := parseHostStat([]byte("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 17 0 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if a.steal != 35 || a.total != 1000 {
		t.Fatalf("parsed %+v, want steal 35 of 1000", a)
	}
	b := hostCPU{steal: a.steal + 25, total: a.total + 100}
	if got := stealPct(a, b); got != 25 {
		t.Errorf("steal = %g%%, want 25%%", got)
	}
	if got := stealPct(b, b); got != 0 {
		t.Errorf("steal over no time = %g", got)
	}
}

func TestParseProm(t *testing.T) {
	text := []byte(`# HELP regserve_forward_total Operations relayed.
# TYPE regserve_forward_total counter
regserve_forward_total{op="read"} 3
regserve_forward_total{op="write"} 4
regserve_transport_flushed_frames_total 7000
regserve_transport_frames_per_write 1.5
not a metric line
`)
	m := parseProm(text)
	if m["regserve_forward_total"] != 7 {
		t.Errorf("labelled series summed to %g, want 7", m["regserve_forward_total"])
	}
	if m["regserve_transport_flushed_frames_total"] != 7000 || m["regserve_transport_frames_per_write"] != 1.5 {
		t.Errorf("parsed %v", m)
	}
	if _, ok := m["not a metric"]; ok || len(m) != 3 {
		t.Errorf("malformed line kept: %v", m)
	}
}
