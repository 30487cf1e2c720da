// Command perfbench is the repository's end-to-end benchmark. It spawns a
// prebuilt regserve cluster over loopback TCP, drives one workload through
// the public client package from this single process, checks per-key
// regularity of everything the client observed, and prints every metric
// by name with its unit and sample count. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
//	bash perfbench/run.sh --workload read_mostly --seed 1 --seconds 35 --trace 0
//
// run.sh builds regserve and this command from the checkout first. With
// --trace 0 the JSON metrics are the bounded end-to-end ones of
// BENCHMARK.json; the ungated ones are printed above it. With --trace 1
// the command runs the workload once untraced and once traced and reports
// the per-layer metrics, the ungated end-to-end ones and the tracing
// overhead (traced − untraced, per end-to-end metric). A regularity
// violation makes the command exit non-zero without printing a result.
package main

import (
	"bufio"
	"compress/gzip"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// A pass is valid only while nothing outside the program disturbed it
// much: its open-loop generator sent on schedule (lateness p99 at most
// lateBoundMs) and the host's hypervisor stole at most stealBoundPct of
// the CPU time during the window. On a shared 2-vCPU host, latency and
// throughput track steal closely (read p50 rose from 0.3 ms to 1 ms as
// steal went from 5% to 27%, and write_saturate's throughput fell by a
// fifth at 5% to 9% steal), so a disturbed pass measures the neighbours
// rather than the program.
const (
	lateBoundMs   = 10
	stealBoundPct = 5
)

// maxAttempts bounds the passes a measured run makes while they come out
// void; if all are, the least disturbed one is reported and marked void.
// Each pass holds a whole window, so this also bounds a run's length.
const maxAttempts = 2

// layerSample bounds how many of a traced window's operations the
// placement and wire micro-measures replay.
const layerSample = 50000

// setupsPerRun is how many fresh clusters a measured run sets up; setup_s
// is their median.
const setupsPerRun = 9

func main() {
	var (
		wlName   = flag.String("workload", "", "workload: read_mostly, write_saturate or churn")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		bin      = flag.String("regserve", "", "path of the regserve binary")
		buildDir = flag.String("build-dir", ".bench_build", "directory for the traced run's span file")
	)
	flag.Parse()
	if err := run(*wlName, *seed, *seconds, *trace, *bin, *buildDir, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure; n is its sample count where that
// matters.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// ungated names the end-to-end metrics too noisy on a shared host to
// carry a regression bound (their spread across seeds far exceeds any
// bound the benchmark may set); BENCHMARK.json lists them with the
// per-layer metrics of the traced run, and every run prints them.
var ungated = map[string]bool{"read_p99_ms": true, "write_p99_ms": true, "unavail_ms": true, "join_ms": true}

// gated selects the end-to-end metrics that carry a bound (want true) or
// those that do not (want false).
func gated(mets []metric, want bool) []metric {
	var out []metric
	for _, m := range mets {
		if !ungated[m.name] == want {
			out = append(out, m)
		}
	}
	return out
}

func run(wlName string, seed int64, seconds, trace int, bin, buildDir string, out io.Writer) error {
	wl, err := lookupWorkload(wlName)
	if err != nil {
		return err
	}
	if seconds < 2 {
		return fmt.Errorf("--seconds must be at least 2 (got %d)", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1 (got %d)", trace)
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("regserve binary: %w", err)
	}
	genProcs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(genProcs)
	fmt.Fprintf(out, "env go=%s nproc=%d cpu=%q commit=%s source_sha256=%s gomaxprocs_server=%d gomaxprocs_generator=%d tick=1ms workload=%s seed=%d seconds=%d trace=%d\n",
		runtime.Version(), runtime.NumCPU(), cpuModel(), commit(), sourceDigest(), serverProcs, genProcs, wl.name, seed, seconds, trace)

	pc := passConfig{bin: bin, wl: wl, seed: seed, window: time.Duration(seconds) * time.Second, setups: setupsPerRun}
	if trace == 0 {
		res, err := validPass(pc, maxAttempts, out)
		if err != nil {
			return err
		}
		e2e := e2eMetrics(res)
		printMetrics(out, e2e)
		printPass(out, res)
		return printResult(out, res, gated(e2e, true))
	}

	// Traced mode: an untraced reference pass, then the traced pass, one
	// attempt each (per-layer figures carry no bound).
	pc.setups = 1
	ref, err := validPass(pc, 1, out)
	if err != nil {
		return err
	}
	refM := e2eMetrics(ref)
	pc.traced = true
	res, err := validPass(pc, 1, out)
	if err != nil {
		return err
	}
	var spans []batchSpan
	layers, err := layerMetrics(res, bin, &spans)
	if err != nil {
		return err
	}
	resM := e2eMetrics(res)
	layers = append(layers, gated(resM, false)...)
	for i, m := range resM {
		layers = append(layers, metric{name: "overhead." + m.name, value: m.value - refM[i].value, unit: m.unit})
	}
	printMetrics(out, gated(resM, true))
	printMetrics(out, layers)
	printPass(out, res)
	checkRounds(out, layers)
	if err := writeSpans(filepath.Join(buildDir, "spans-"+wl.name+".jsonl.gz"), res, spans); err != nil {
		return err
	}
	return printResult(out, res, layers)
}

// valid reports whether a pass stayed within the validity bounds.
func valid(res *passResult) bool {
	return lateP99Ms(res) <= lateBoundMs && res.steal <= stealBoundPct
}

// validPass runs up to attempts passes, stopping at the first valid one.
// A void pass is reported and not used; when every attempt is void, the
// one with the least host steal is returned and marked void. A
// regularity violation is an error.
func validPass(pc passConfig, attempts int, out io.Writer) (*passResult, error) {
	var best *passResult
	for attempt := 1; attempt <= attempts; attempt++ {
		res, err := runPass(pc)
		if err != nil {
			return nil, err
		}
		if len(res.verdict.violations) > 0 {
			return nil, fmt.Errorf("%d regularity violations in the client-observed history:\n%s",
				len(res.verdict.violations), res.verdict.summary(10))
		}
		if valid(res) {
			return res, nil
		}
		fmt.Fprintf(out, "void pass %d: late_p99_ms=%.3f (bound %d) host_steal_pct=%.2f (bound %d)\n",
			attempt, lateP99Ms(res), lateBoundMs, res.steal, stealBoundPct)
		if best == nil || res.steal < best.steal {
			best = res
		}
	}
	if attempts > 1 {
		fmt.Fprintf(out, "void run: all %d passes exceeded the validity bounds; reporting the least disturbed\n", attempts)
	}
	return best, nil
}

// inWindow reports whether operation i was due inside the measured window.
func inWindow(res *passResult, i int) bool {
	d := res.recs[i].due
	return d >= warmup && d < warmup+res.window
}

// counted reports whether operation i counts as attempted in the window.
func counted(res *passResult, i int) bool {
	st := res.recs[i].status
	return inWindow(res, i) && st != stNone && st != stSkipped
}

// lateP99Ms is the 99th percentile of send time minus due time over the
// window's operations (0 for a closed loop, whose operations are due when
// sent).
func lateP99Ms(res *passResult) float64 {
	var late []float64
	for i := range res.recs {
		if counted(res, i) {
			late = append(late, ms(res.recs[i].sent-res.recs[i].due))
		}
	}
	sort.Float64s(late)
	return percentile(late, 0.99)
}

// succeeded counts the window's operations that succeeded and returns
// them with the time from the window's start until the last of them
// completed. Their ratio is throughput: an open loop that keeps up
// finishes its last operation one latency after the window and matches
// the offered rate; backlog stretches the time and lowers it.
func succeeded(res *passResult) (int, time.Duration) {
	n, last := 0, warmup
	for i, r := range res.recs {
		if counted(res, i) && r.status == stOK {
			n++
			last = max(last, r.end)
		}
	}
	return n, last - warmup
}

// throughput is succeeded's operations per second.
func throughput(res *passResult) float64 {
	n, d := succeeded(res)
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// latencies returns the sorted latencies (ms, from due time) of the
// window's successful reads or writes.
func latencies(res *passResult, write bool) []float64 {
	var out []float64
	for i, r := range res.recs {
		if counted(res, i) && r.status == stOK && res.ops[i].write == write {
			out = append(out, ms(r.end-r.due))
		}
	}
	sort.Float64s(out)
	return out
}

// e2eMetrics computes the end-to-end metrics: the bounded ones in
// BENCHMARK.json order, then the ungated ones.
func e2eMetrics(res *passResult) []metric {
	setups := make([]float64, len(res.setups))
	for i, d := range res.setups {
		setups[i] = d.Seconds()
	}
	reads, writes := latencies(res, false), latencies(res, true)
	var ivs []interval
	for i, r := range res.recs {
		if counted(res, i) {
			ivs = append(ivs, interval{due: r.due, end: r.end, ok: r.status == stOK})
		}
	}
	done, _ := succeeded(res)
	return []metric{
		{"setup_s", median(setups), "s", len(setups)},
		{"throughput_ops_s", throughput(res), "ops/s", done},
		{"read_p50_ms", percentile(reads, 0.5), "ms", len(reads)},
		{"write_p50_ms", percentile(writes, 0.5), "ms", len(writes)},
		{"server_rss_mb", float64(res.rssKiB) / 1024, "MiB", len(res.servers.end)},
		{"read_p99_ms", percentile(reads, 0.99), "ms", len(reads)},
		{"write_p99_ms", percentile(writes, 0.99), "ms", len(writes)},
		{"unavail_ms", ms(longestUnavailable(ivs)), "ms", len(ivs)},
		{"join_ms", median(durationsMs(res.joins)), "ms", len(res.joins)},
	}
}

// attempts counts the window's attempted, failed and ambiguous operations
// and the writes among the attempted.
func attempts(res *passResult) (attempted, failed, ambiguous, writes int) {
	for i, r := range res.recs {
		if !counted(res, i) {
			continue
		}
		attempted++
		if res.ops[i].write {
			writes++
		}
		switch r.status {
		case stFailed:
			failed++
		case stAmbiguous:
			failed++
			ambiguous++
		}
	}
	return
}

// layerMetrics computes the per-layer metrics of a traced pass.
func layerMetrics(res *passResult, bin string, spans *[]batchSpan) ([]metric, error) {
	n, _ := succeeded(res)
	done := float64(max(n, 1))
	attempted, failed, ambiguous, writes := attempts(res)
	var readSpan, writeSpan []float64
	// The layer micro-measures replay an evenly spaced sample of at most
	// layerSample of the window's operations.
	stride := max(1, (attempted+layerSample-1)/layerSample)
	var window []op
	var windowRecs []rec
	var members []int64 // the servers that served the window's reads
	seen := 0
	for i, r := range res.recs {
		if !counted(res, i) {
			continue
		}
		if seen%stride == 0 {
			window, windowRecs = append(window, res.ops[i]), append(windowRecs, r)
		}
		seen++
		if r.status != stOK {
			continue
		}
		us := float64(r.end-r.sent) / float64(time.Microsecond)
		if res.ops[i].write {
			writeSpan = append(writeSpan, us)
		} else {
			readSpan = append(readSpan, us)
			if !slices.Contains(members, r.served) {
				members = append(members, r.served)
			}
		}
	}
	groupNs := placementGroupNs(window, members, spans)
	encNs, decNs, bytesOp, allocsOp, err := wireCosts(window, windowRecs, spans)
	if err != nil {
		return nil, err
	}
	single, err := singleNodeReadMs(bin)
	if err != nil {
		return nil, fmt.Errorf("single-node read: %w", err)
	}
	l := res.servers
	srv := l.procDelta()
	flushed := l.delta("regserve_transport_flushed_frames_total")
	cs0, cs1 := res.cstats[0], res.cstats[1]
	out := []metric{
		{"regbench.late_p99_ms", lateP99Ms(res), "ms", attempted},
		{"host.steal_pct", res.steal, "%", 0},
		{"client.read_us_p50", median(readSpan), "us", len(readSpan)},
		{"client.write_us_p50", median(writeSpan), "us", len(writeSpan)},
		{"client.retries", float64(cs1.Retries - cs0.Retries), "count", 0},
		{"client.refreshes", float64(cs1.Refreshes - cs0.Refreshes), "count", 0},
		{"client.redials", float64(cs1.Redials - cs0.Redials), "count", 0},
		{"client.cpu_us_per_op", cpuMicros(res.genProc.cpuTicks) / done, "us", int(done)},
		{"client.syscw_per_op", float64(res.genProc.syscw) / done, "count", int(done)},
		{"placement.group_ns", groupNs, "ns", len(window)},
		{"wire.encode_ns", encNs, "ns", 0},
		{"wire.decode_ns", decNs, "ns", 0},
		{"wire.bytes_per_op", bytesOp, "bytes", 0},
		{"wire.allocs_per_op", allocsOp, "count", 0},
		{"nettransport.frames_per_read", res.layers["nettransport.frames_per_read"], "count", phaseOps},
		{"nettransport.frames_per_write", res.layers["nettransport.frames_per_write"], "count", phaseOps},
		{"nettransport.frames_per_syscw", flushed / float64(max(srv.syscw, 1)), "count", 0},
		{"nettransport.mailbox_stalls", l.delta("regserve_transport_mailbox_stalls_total"), "count", 0},
		{"nettransport.queue_drops", l.delta("regserve_transport_queue_drops_total"), "count", 0},
		{"shard.forward_relays", l.delta("regserve_forward_total"), "count", 0},
		{"shard.refused", l.delta("regserve_forward_refused_total"), "count", 0},
		{"regserve.cpu_us_per_op", cpuMicros(srv.cpuTicks) / done, "us", int(done)},
		{"regserve.syscw_per_op", float64(srv.syscw) / done, "count", int(done)},
	}
	var total int64
	for _, v := range res.profiles {
		total += v
	}
	for _, g := range selfGroups {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(res.profiles[g]) / float64(total)
		}
		out = append(out, metric{"regserve.self_pct." + g, pct, "%", 0})
	}
	out = append(out,
		metric{"regserve.single_node_read_ms", single, "ms", phaseOps},
		metric{"failed_frac", float64(failed) / float64(max(attempted, 1)), "ratio", attempted},
		metric{"ambiguous_frac", float64(ambiguous) / float64(max(writes, 1)), "ratio", writes},
	)
	return out, nil
}

// checkRounds compares the measured frames per operation with esync's
// message count and flags any mismatch.
func checkRounds(out io.Writer, layers []metric) {
	want := map[string]float64{
		"nettransport.frames_per_read":  theoryFramesPerRead,
		"nettransport.frames_per_write": theoryFramesPerWrite,
	}
	for _, m := range layers {
		if w, ok := want[m.name]; ok {
			verdict := "matches"
			if m.value != w {
				verdict = "MISMATCH"
			}
			fmt.Fprintf(out, "rounds %s measured=%.3f theory=%g %s\n", m.name, m.value, w, verdict)
		}
	}
}

// printMetrics prints one line per metric.
func printMetrics(out io.Writer, mets []metric) {
	for _, m := range mets {
		if m.n > 0 {
			fmt.Fprintf(out, "metric %s %.6g %s n=%d\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Fprintf(out, "metric %s %.6g %s\n", m.name, m.value, m.unit)
		}
	}
}

// printPass prints the pass's validity stamps, failure accounting, tail
// percentiles and backpressure counters.
func printPass(out io.Writer, res *passResult) {
	attempted, failed, ambiguous, writes := attempts(res)
	skipped := 0
	for i, r := range res.recs {
		if inWindow(res, i) && r.status == stSkipped {
			skipped++
		}
	}
	if res.wl.rate > 0 {
		fmt.Fprintf(out, "load offered_ops_s=%d achieved_ops_s=%.1f (a shortfall is backlog)\n", res.wl.rate, throughput(res))
	}
	fmt.Fprintf(out, "validity late_p99_ms=%.3f bound_ms=%d host_steal_pct=%.2f\n", lateP99Ms(res), lateBoundMs, res.steal)
	fmt.Fprintf(out, "failures attempted=%d failed=%d failed_frac=%.6f ambiguous=%d writes=%d ambiguous_frac=%.6f skipped_poisoned=%d\n",
		attempted, failed, float64(failed)/float64(max(attempted, 1)), ambiguous, writes, float64(ambiguous)/float64(max(writes, 1)), skipped)
	for _, w := range []bool{false, true} {
		lat := latencies(res, w)
		kind := "read"
		if w {
			kind = "write"
		}
		if q, ok := tailQuantile(len(lat)); ok {
			fmt.Fprintf(out, "tail %s p%g=%.3f ms n=%d\n", kind, 100*q, percentile(lat, q), len(lat))
		} else {
			fmt.Fprintf(out, "tail %s too few samples n=%d\n", kind, len(lat))
		}
	}
	l := res.servers
	n, _ := succeeded(res)
	done := float64(max(n, 1))
	srv := l.procDelta()
	fmt.Fprintf(out, "cpu regserve_us_per_op=%.2f client_us_per_op=%.2f regserve_syscw_per_op=%.3f\n",
		cpuMicros(srv.cpuTicks)/done, cpuMicros(res.genProc.cpuTicks)/done, float64(srv.syscw)/done)
	fmt.Fprintf(out, "backpressure queue_drops=%g mailbox_stalls=%g\n",
		l.delta("regserve_transport_queue_drops_total"), l.delta("regserve_transport_mailbox_stalls_total"))
	fmt.Fprintf(out, "regularity checked ops=%d ambiguous=%d resolved=%d violations=0\n",
		len(res.recs), res.verdict.ambiguous, res.verdict.resolved)
}

// printResult prints the final JSON line.
func printResult(out io.Writer, res *passResult, mets []metric) error {
	attempted, failed, _, _ := attempts(res)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(mets))
	for _, m := range mets {
		vals[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, attempted, failed, vals})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

// writeSpans writes the traced pass's spans, kept in memory until now, as
// gzipped JSON lines: per operation a root span from due time to completion (its
// self time is the generator's lateness) and a client span from send to
// completion, then the layer micro-measures' timed batches.
func writeSpans(path string, res *passResult, batches []batchSpan) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	type span struct {
		Trace  int    `json:"trace"`
		Span   int    `json:"span"`
		Parent int    `json:"parent"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Calls  int    `json:"calls,omitempty"`
	}
	id := 0
	for i, r := range res.recs {
		if !counted(res, i) {
			continue
		}
		name := "client.read"
		if res.ops[i].write {
			name = "client.write"
		}
		id += 2
		enc.Encode(span{Trace: i, Span: id - 1, Name: "regbench.op", Start: int64(r.due), End: int64(r.end)})
		enc.Encode(span{Trace: i, Span: id, Parent: id - 1, Name: name, Start: int64(r.sent), End: int64(r.end)})
	}
	for _, b := range batches {
		id++
		enc.Encode(span{Trace: -1, Span: id, Name: b.name, Start: b.start.UnixNano(), End: b.end.UnixNano(), Calls: b.calls})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checked-out git commit when the working directory is
// the root of a git work tree, and "none" otherwise.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	b, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(b))
}

// sourceDigest hashes the module's Go sources and go.mod files under the
// working directory, identifying the code measured when there is no
// commit to name.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
