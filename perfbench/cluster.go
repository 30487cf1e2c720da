package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverFlags are the regserve settings every benchmark cluster shares:
// esync (the paper's time-free protocol), 16 shards replicated 3 ways,
// and a 1 ms tick, the delay every self-delivery waits.
var serverFlags = []string{"-protocol", "esync", "-delta", "5", "-tick", "1ms", "-shards", "16", "-replication", "3"}

// serverProcs is the GOMAXPROCS every regserve runs with.
const serverProcs = 1

// clusterN is the constant system size n.
const clusterN = 3

// httpc talks to the servers' HTTP APIs (health, metrics, leave,
// profiles); the longest call is a profile, bounded by its own seconds.
var httpc = &http.Client{
	Timeout:   90 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
}

// server is one regserve OS process.
type server struct {
	id     int64
	cmd    *exec.Cmd
	pid    string
	listen string // wire address
	api    string // HTTP address
	exited chan struct{}
	// stderr keeps the tail of the process's log for failure reports.
	stderr *tailBuffer
}

// tailBuffer keeps the last few KiB written to it.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 8192 {
		t.buf = append([]byte(nil), t.buf[len(t.buf)-8192:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// spawnOpts are the per-process choices on top of serverFlags.
type spawnOpts struct {
	n         int
	bootstrap bool
	peers     []string
	// evictAfter is regserve's -evict-after; empty keeps its default.
	evictAfter string
	pprof      bool
}

// startServer launches one regserve and waits for the line announcing
// its bound addresses.
func startServer(bin string, id int64, o spawnOpts) (*server, error) {
	args := append([]string{"-id", strconv.FormatInt(id, 10), "-n", strconv.Itoa(o.n),
		"-listen", "127.0.0.1:0", "-api", "127.0.0.1:0"}, serverFlags...)
	if o.bootstrap {
		args = append(args, "-bootstrap")
	}
	if len(o.peers) > 0 {
		args = append(args, "-peers", strings.Join(o.peers, ","))
	}
	if o.evictAfter != "" {
		args = append(args, "-evict-after", o.evictAfter)
	}
	if o.pprof {
		args = append(args, "-pprof")
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs))
	// A server outlives no benchmark: if this process dies, so does it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{id: id, cmd: cmd, exited: make(chan struct{}), stderr: &tailBuffer{}}
	cmd.Stderr = s.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start regserve %d: %w", id, err)
	}
	s.pid = strconv.Itoa(cmd.Process.Pid)
	lineCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "REGSERVE ") {
				lineCh <- line
				break
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	select {
	case line := <-lineCh:
		for _, f := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(f, "listen="); ok {
				s.listen = v
			}
			if v, ok := strings.CutPrefix(f, "api="); ok {
				s.api = v
			}
		}
		if s.listen == "" || s.api == "" {
			s.kill()
			return nil, fmt.Errorf("regserve %d: bad announce line %q", id, line)
		}
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("regserve %d exited before announcing: %s", id, s.stderr)
	case <-time.After(20 * time.Second):
		s.kill()
		return nil, fmt.Errorf("regserve %d never announced its addresses", id)
	}
}

// get fetches one path from the server's HTTP API.
func (s *server) get(path string) ([]byte, error) {
	resp, err := httpc.Get("http://" + s.api + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return b, nil
}

// waitActive polls /health until the server is active and knows at least
// wantPeers peers.
func (s *server) waitActive(wantPeers int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if b, err := s.get("/health"); err == nil {
			var h struct {
				Active bool `json:"active"`
				Peers  int  `json:"peers"`
			}
			if json.Unmarshal(b, &h) == nil && h.Active && h.Peers >= wantPeers {
				return nil
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("regserve %d exited while joining: %s", s.id, s.stderr)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("regserve %d not active with %d peers after %v", s.id, wantPeers, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// metrics scrapes /metrics, summed by series name.
func (s *server) metrics() (map[string]float64, error) {
	b, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(b), nil
}

// leave asks the server to depart gracefully and waits for it to exit,
// killing it if it lingers.
func (s *server) leave() error {
	resp, err := httpc.Post("http://"+s.api+"/leave", "text/plain", nil)
	if err == nil {
		resp.Body.Close()
	}
	select {
	case <-s.exited:
		return nil
	case <-time.After(10 * time.Second):
		s.kill()
		return fmt.Errorf("regserve %d did not exit after /leave", s.id)
	}
}

// kill SIGKILLs the server and waits until it has exited.
func (s *server) kill() {
	s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.exited
}

// killAll stops every server and waits for each.
func killAll(ss []*server) {
	for _, s := range ss {
		s.cmd.Process.Signal(syscall.SIGKILL)
	}
	for _, s := range ss {
		<-s.exited
	}
}
