package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every mainstream Linux build).
const clockTicks = 100

// procSample is one reading of a process's counters from /proc.
type procSample struct {
	cpuTicks uint64 // utime + stime
	syscw    uint64 // write-family system calls
}

// cpuMicros converts a tick delta to microseconds.
func cpuMicros(ticks uint64) float64 { return float64(ticks) * 1e6 / clockTicks }

// parseProcStat returns utime+stime from the contents of /proc/<pid>/stat.
// The command name (field 2) may hold spaces and parentheses, so fields
// are counted from the last ')'.
func parseProcStat(b []byte) (uint64, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command name")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command name", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return ut + st, nil
}

// parseKeyed reads one "key: value" line's number out of /proc/<pid>/io or
// /proc/<pid>/status style contents (a trailing unit such as "kB" is
// ignored).
func parseKeyed(b []byte, key string) (uint64, error) {
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(k) != key {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			break
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("%s not found", key)
}

// readProc samples a process's CPU time and write syscalls; pid "self"
// reads the benchmark's own process.
func readProc(pid string) (procSample, error) {
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return procSample{}, err
	}
	io, err := os.ReadFile("/proc/" + pid + "/io")
	if err != nil {
		return procSample{}, err
	}
	var s procSample
	if s.cpuTicks, err = parseProcStat(stat); err != nil {
		return procSample{}, err
	}
	if s.syscw, err = parseKeyed(io, "syscw"); err != nil {
		return procSample{}, err
	}
	return s, nil
}

// peakRSSKiB reads VmHWM, the process's peak resident set, in KiB.
func peakRSSKiB(pid string) (uint64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	return parseKeyed(b, "VmHWM")
}

// hostCPU is the aggregate "cpu" line of /proc/stat: steal and the sum of
// every field, both in ticks.
type hostCPU struct{ steal, total uint64 }

// parseHostStat reads the aggregate cpu line of /proc/stat.
func parseHostStat(b []byte) (hostCPU, error) {
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || f[0] != "cpu" {
			continue
		}
		var h hostCPU
		// user nice system idle iowait irq softirq steal [guest guest_nice];
		// guest time is already counted in user, so it is left out.
		for i, s := range f[1:9] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return hostCPU{}, fmt.Errorf("/proc/stat cpu field %d: %w", i+1, err)
			}
			h.total += v
			if i == 7 {
				h.steal = v
			}
		}
		return h, nil
	}
	return hostCPU{}, fmt.Errorf("/proc/stat: no cpu line")
}

// readHostCPU samples /proc/stat.
func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	return parseHostStat(b)
}

// stealPct is the share of host CPU time stolen by the hypervisor between
// two samples, in percent.
func stealPct(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// parseProm sums a Prometheus text exposition by metric name: every
// labelled series of one name adds into one total. Comments and
// malformed lines are skipped.
func parseProm(b []byte) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := strings.TrimSpace(line[:sp])
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}
