package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"churnreg/client"
)

// warmup precedes every measured window at the workload's own load; its
// operations are checked for regularity but not measured.
const warmup = time.Second

// opTimeout bounds one client operation attempt; an operation that
// exhausts it fails (and is ambiguous if it was a write).
const opTimeout = 2 * time.Second

// idleJoins is how many join-then-leave cycles follow the window of a
// workload without churn, to measure join time there.
const idleJoins = 5

// cluster is one freshly spawned benchmark cluster and the client driving
// it.
type cluster struct {
	bin    string
	wl     workload
	pprof  bool
	live   []*server // oldest first
	nextID int64
	c      *client.Client
	// initial is the value each key's set-up write stored.
	initial map[int64]client.Versioned
}

// evictAfter is the churn workload's -evict-after: a crashed peer must
// leave the placement quickly for its shards to heal.
func (cl *cluster) evictAfter() string {
	if cl.wl.churn {
		return "500ms"
	}
	return ""
}

// setupCluster spawns clusterN bootstrap servers, waits until each is
// active with all its peers, dials the client, waits for its view to name
// every server, and writes every key of the workload once. The returned
// duration is the whole of it: the setup_s metric.
func setupCluster(bin string, wl workload, pprof bool) (*cluster, time.Duration, error) {
	t0 := time.Now()
	cl := &cluster{bin: bin, wl: wl, pprof: pprof, nextID: 1}
	var peers []string
	for i := 0; i < clusterN; i++ {
		s, err := startServer(bin, cl.nextID, spawnOpts{n: clusterN, bootstrap: true, peers: peers, evictAfter: cl.evictAfter(), pprof: pprof})
		if err != nil {
			cl.close()
			return nil, 0, err
		}
		cl.nextID++
		cl.live = append(cl.live, s)
		peers = append(peers, s.listen)
	}
	for _, s := range cl.live {
		if err := s.waitActive(clusterN-1, 30*time.Second); err != nil {
			cl.close()
			return nil, 0, err
		}
	}
	c, err := client.Dial(client.Config{Seeds: peers, OpTimeout: opTimeout})
	if err != nil {
		cl.close()
		return nil, 0, fmt.Errorf("dial: %w", err)
	}
	cl.c = c
	for deadline := time.Now().Add(10 * time.Second); len(c.Members()) < clusterN; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			cl.close()
			return nil, 0, fmt.Errorf("client view lists %v, want %d members", c.Members(), clusterN)
		}
	}
	if err := cl.writeAll(); err != nil {
		cl.close()
		return nil, 0, err
	}
	return cl, time.Since(t0), nil
}

// writeAll writes every key once, 32 writes in flight, recording the
// stored values as the keys' baselines.
func (cl *cluster) writeAll() error {
	const workers = 32
	vals := make([]client.Versioned, cl.wl.keys)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < cl.wl.keys; k += workers {
				v, err := cl.c.Write(int64(k), -int64(k)-1)
				if err != nil {
					errs[w] = fmt.Errorf("set-up write of key %d: %w", k, err)
					return
				}
				vals[k] = v
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	cl.initial = make(map[int64]client.Versioned, cl.wl.keys)
	for k, v := range vals {
		cl.initial[int64(k)] = v
	}
	return nil
}

func (cl *cluster) close() {
	if cl.c != nil {
		cl.c.Close()
	}
	killAll(cl.live)
	cl.live = nil
}

// join spawns a new process seeded with the live servers and waits until
// it reports active; the duration is spawn to active.
func (cl *cluster) join() (*server, time.Duration, error) {
	t0 := time.Now()
	var peers []string
	for _, s := range cl.live {
		peers = append(peers, s.listen)
	}
	s, err := startServer(cl.bin, cl.nextID, spawnOpts{n: clusterN, peers: peers, evictAfter: cl.evictAfter(), pprof: cl.pprof})
	cl.nextID++
	if err != nil {
		return nil, 0, err
	}
	if err := s.waitActive(1, 30*time.Second); err != nil {
		s.kill()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

// counters is one server's reading of its /metrics series and /proc
// counters.
type counters struct {
	prom map[string]float64
	proc procSample
	rss  uint64 // VmHWM, KiB
}

func sampleServer(s *server) (counters, error) {
	m, err := s.metrics()
	if err != nil {
		return counters{}, fmt.Errorf("scrape regserve %d: %w", s.id, err)
	}
	p, err := readProc(s.pid)
	if err != nil {
		return counters{}, fmt.Errorf("regserve %d /proc: %w", s.id, err)
	}
	rss, err := peakRSSKiB(s.pid)
	if err != nil {
		return counters{}, fmt.Errorf("regserve %d /proc status: %w", s.id, err)
	}
	return counters{prom: m, proc: p, rss: rss}, nil
}

// ledger collects per-server counter readings across a window: one at
// its start (absent for servers spawned during it) and one at its end or
// just before the server departed.
type ledger struct {
	mu         sync.Mutex
	start, end map[*server]counters
	err        error
}

func newLedger() *ledger {
	return &ledger{start: map[*server]counters{}, end: map[*server]counters{}}
}

func (l *ledger) record(into map[*server]counters, ss []*server) {
	for _, s := range ss {
		c, err := sampleServer(s)
		l.mu.Lock()
		if err != nil && l.err == nil {
			l.err = err
		}
		into[s] = c
		l.mu.Unlock()
	}
}

// delta sums end−start of one /metrics series over every server.
func (l *ledger) delta(name string) float64 {
	var d float64
	for s, e := range l.end {
		d += e.prom[name] - l.start[s].prom[name]
	}
	return d
}

// procDelta sums the servers' /proc counter deltas.
func (l *ledger) procDelta() procSample {
	var d procSample
	for s, e := range l.end {
		st := l.start[s].proc
		d.cpuTicks += e.proc.cpuTicks - st.cpuTicks
		d.syscw += e.proc.syscw - st.syscw
	}
	return d
}

// passResult is everything one measured pass observed.
type passResult struct {
	wl       workload
	setups   []time.Duration
	ops      []op
	recs     []rec
	window   time.Duration
	verdict  verdict
	joins    []time.Duration
	rssKiB   uint64 // peak RSS summed over the servers live at the end
	servers  *ledger
	steal    float64
	genProc  procSample // the benchmark process's own /proc deltas
	cstats   [2]client.Stats
	profiles map[string]int64 // CPU self time by selfGroups bucket
	layers   map[string]float64
}

// passConfig selects what one pass does.
type passConfig struct {
	bin    string
	wl     workload
	seed   int64
	window time.Duration
	setups int
	traced bool
}

// runPass sets up pc.setups fresh clusters (timing each and keeping the
// last), drives the workload through warm-up and the measured window,
// measures joins, checks the history, and tears the cluster down.
func runPass(pc passConfig) (*passResult, error) {
	res := &passResult{wl: pc.wl, window: pc.window, servers: newLedger()}
	var cl *cluster
	for i := 0; i < pc.setups; i++ {
		c, d, err := setupCluster(pc.bin, pc.wl, pc.traced)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, d)
		if i < pc.setups-1 {
			c.close()
		} else {
			cl = c
		}
	}
	defer cl.close()

	var ops []op
	if pc.wl.rate > 0 {
		ops = genOps(pc.wl, pc.seed, warmup, pc.window)
	}
	origin := time.Now()
	r := newRunner(cl.c, ops, pc.wl.keys, origin)
	founders := append([]*server(nil), cl.live...)

	// Window-start readings and, in a traced pass, the servers' CPU
	// profiles, taken off the generator's path.
	var aside sync.WaitGroup
	var host0 hostCPU
	var gen0 procSample
	var hostErr error
	profiles := make([][]byte, len(founders))
	aside.Add(1)
	go func() {
		defer aside.Done()
		time.Sleep(time.Until(origin.Add(warmup)))
		res.cstats[0] = cl.c.Stats()
		if host0, hostErr = readHostCPU(); hostErr == nil {
			gen0, hostErr = readProc("self")
		}
		res.servers.record(res.servers.start, founders)
		if !pc.traced {
			return
		}
		secs := int(pc.window / time.Second)
		if pc.wl.churn {
			// Every founder departs during a churn window; profile the
			// stretch before the first departure.
			secs = 1
		}
		var pw sync.WaitGroup
		for i, s := range founders {
			pw.Add(1)
			go func(i int, s *server) {
				defer pw.Done()
				profiles[i], _ = s.get(fmt.Sprintf("/debug/pprof/profile?seconds=%d", secs))
			}(i, s)
		}
		pw.Wait()
	}()
	var churnErr error
	if pc.wl.churn {
		aside.Add(1)
		go func() {
			defer aside.Done()
			res.joins, churnErr = cl.churn(churnSchedule(pc.seed, pc.window), origin.Add(warmup), res.servers)
		}()
	}

	if pc.wl.rate > 0 {
		r.openLoop()
	} else {
		r.closedLoop(pc.wl.inflight, warmup+pc.window, newOpSource(pc.wl, pc.seed).next)
	}
	aside.Wait()
	if hostErr != nil {
		return nil, hostErr
	}
	if churnErr != nil {
		return nil, churnErr
	}
	res.cstats[1] = cl.c.Stats()
	host1, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	gen1, err := readProc("self")
	if err != nil {
		return nil, err
	}
	res.steal = stealPct(host0, host1)
	res.genProc = procSample{cpuTicks: gen1.cpuTicks - gen0.cpuTicks, syscw: gen1.syscw - gen0.syscw}
	res.servers.record(res.servers.end, cl.live)
	if res.servers.err != nil {
		return nil, res.servers.err
	}
	for _, s := range cl.live {
		res.rssKiB += res.servers.end[s].rss
	}
	res.ops, res.recs = r.ops, r.recs

	if pc.traced {
		res.profiles = map[string]int64{}
		for i, raw := range profiles {
			if raw == nil {
				continue
			}
			self, err := selfTimes(raw)
			if err != nil {
				return nil, fmt.Errorf("regserve %d profile: %w", founders[i].id, err)
			}
			for g, v := range groupSelf(self) {
				res.profiles[g] += v
			}
		}
		if res.layers, err = cl.frameCounts(); err != nil {
			return nil, err
		}
	}
	if !pc.wl.churn {
		for i := 0; i < idleJoins; i++ {
			s, d, err := cl.join()
			if err != nil {
				return nil, err
			}
			res.joins = append(res.joins, d)
			if err := s.leave(); err != nil {
				return nil, err
			}
		}
	}
	res.verdict, err = checkHistory(res.ops, res.recs, cl.initial)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// churn runs the schedule against the live cluster from start. A join
// step spawns a process and, once it reports active, sends the oldest
// /leave; the kill step SIGKILLs its victim and spawns the replacement at
// once. Counters of each departing server are read just before it goes.
// It returns every join's spawn-to-active time.
func (cl *cluster) churn(steps []churnStep, start time.Time, l *ledger) ([]time.Duration, error) {
	var joins []time.Duration
	for _, st := range steps {
		time.Sleep(time.Until(start.Add(st.at)))
		if st.kill {
			v := cl.live[st.victim]
			l.record(l.end, []*server{v})
			v.kill()
			cl.live = append(cl.live[:st.victim:st.victim], cl.live[st.victim+1:]...)
		}
		s, d, err := cl.join()
		if err != nil {
			return joins, fmt.Errorf("churn join: %w", err)
		}
		joins = append(joins, d)
		cl.live = append(cl.live, s)
		if !st.kill {
			old := cl.live[0]
			l.record(l.end, []*server{old})
			if err := old.leave(); err != nil {
				return joins, err
			}
			cl.live = cl.live[1:]
		}
	}
	return joins, nil
}

// durationsMs converts and sorts durations as milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}
