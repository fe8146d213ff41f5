package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Process handling for the live workloads: real swebd children on
// loopback TCP, each pinned to one CPU's worth of scheduler.

const (
	buildDirName = ".bench_build"
	readyTimeout = 20 * time.Second
	stopGrace    = 3 * time.Second // swebd runs with -grace 1s; SIGKILL after this
	clockTick    = 100             // USER_HZ; fixed at 100 on every Linux ABI
)

// children tracks every swebd this process started, so a signal or a
// failed run can kill them all; nothing may outlive the benchmark.
var children struct {
	sync.Mutex
	cmds []*exec.Cmd
	dirs []string
}

// purge kills every tracked child, waits for it, and removes every
// tracked scratch directory. It reports how many children had to be
// killed, which on a clean path is zero.
func purge() int {
	children.Lock()
	defer children.Unlock()
	killed := 0
	for _, cmd := range children.cmds {
		if cmd.ProcessState == nil {
			killed++
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	}
	for _, d := range children.dirs {
		os.RemoveAll(d)
	}
	children.cmds, children.dirs = nil, nil
	return killed
}

// findRoot locates the module root (the directory whose go.mod says
// "module sweb") from the working directory: `go -C bench run .` runs in
// bench/, tests run in bench/, a built binary may run from the root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, cand := range []string{dir, filepath.Dir(dir)} {
		b, err := os.ReadFile(filepath.Join(cand, "go.mod"))
		if err == nil && bytes.HasPrefix(b, []byte("module sweb\n")) {
			return cand, nil
		}
	}
	return "", fmt.Errorf("no sweb module root at or above %s", dir)
}

// buildSwebd compiles cmd/swebd from the checkout's source into the
// ignored build directory. With a warm Go build cache this is a no-op
// link check; it is never part of setup_s.
func buildSwebd(root string) (string, error) {
	out := filepath.Join(root, buildDirName, "swebd")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/swebd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/swebd: %w", err)
	}
	return out, nil
}

type swebNode struct {
	id      int
	cmd     *exec.Cmd
	addr    string
	udp     string
	startMS float64 // exec to first /sweb/status answer
}

type cluster struct {
	dir   string
	nodes []*swebNode
}

func (c *cluster) addrs() []string {
	out := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.addr
	}
	return out
}

// freePort asks the kernel for an unused loopback port of the given
// network and releases it for the child to bind.
func freePort(network string) (string, error) {
	if network == "udp" {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		defer c.Close()
		return c.LocalAddr().String(), nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// materialize writes each document to its owner's docroot with seeded
// content and the fixed mtime, fills in the CRCs, and writes the manifest.
func materialize(dir string, docs []doc, nodes int, seed uint64) error {
	var maxSize int64
	for _, d := range docs {
		maxSize = max(maxSize, d.Size)
	}
	buf := make([]byte, maxSize)
	var mf strings.Builder
	fmt.Fprintf(&mf, "nodes %d\n", nodes)
	for i := range docs {
		d := &docs[i]
		body := buf[:d.Size]
		d.CRC = fillBody(body, seed, i)
		full := filepath.Join(dir, fmt.Sprintf("node%d", d.Owner), filepath.FromSlash(d.Path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(full, body, 0o644); err != nil {
			return err
		}
		if err := os.Chtimes(full, docMTime, docMTime); err != nil {
			return err
		}
		fmt.Fprintf(&mf, "%s %d %d\n", d.Path, d.Size, d.Owner)
	}
	for n := 0; n < nodes; n++ {
		if err := os.MkdirAll(filepath.Join(dir, fmt.Sprintf("node%d", n)), 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, "cluster.manifest"), []byte(mf.String()), 0o644)
}

// startCluster materializes the corpus under a fresh scratch directory,
// starts one swebd per node with GOMAXPROCS=1 and default flags plus the
// workload's own, and returns once every node reports a fresh load sample
// from every peer: only then does the scheduler redirect at all.
func startCluster(root, bin string, docs []doc, nodes int, seed uint64, flags []string) (*cluster, error) {
	if err := os.MkdirAll(filepath.Join(root, buildDirName), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(root, buildDirName), "run-")
	if err != nil {
		return nil, err
	}
	children.Lock()
	children.dirs = append(children.dirs, dir)
	children.Unlock()
	if err := materialize(dir, docs, nodes, seed); err != nil {
		return nil, err
	}
	c := &cluster{dir: dir}
	var peers []string
	for i := 0; i < nodes; i++ {
		addr, err := freePort("tcp")
		if err != nil {
			return nil, err
		}
		udp, err := freePort("udp")
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, &swebNode{id: i, addr: addr, udp: udp})
		peers = append(peers, fmt.Sprintf("%d=%s/%s", i, addr, udp))
	}
	// Nodes start one after another, each once the previous one answers,
	// the way an operator brings a cluster up. Started together, whether
	// a node's first broadcast finds its peer's socket already bound is a
	// coin toss, and readiness takes 0.1 s or a whole gossip period.
	deadline := time.Now().Add(readyTimeout)
	for i, n := range c.nodes {
		args := []string{
			"-id", strconv.Itoa(i), "-addr", n.addr, "-udp", n.udp,
			"-peers", strings.Join(peers, ","),
			"-docroot", filepath.Join(dir, fmt.Sprintf("node%d", i)),
			"-manifest", filepath.Join(dir, "cluster.manifest"),
			"-grace", "1s",
		}
		logf, err := os.Create(filepath.Join(dir, fmt.Sprintf("node%d.log", i)))
		if err != nil {
			return nil, err
		}
		n.cmd = exec.Command(bin, append(args, flags...)...)
		n.cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		n.cmd.Stdout, n.cmd.Stderr = logf, logf
		// If the benchmark itself is killed -9, the kernel takes the
		// children with it.
		n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		started := time.Now()
		err = n.cmd.Start()
		logf.Close()
		if err != nil {
			return nil, err
		}
		children.Lock()
		children.cmds = append(children.cmds, n.cmd)
		children.Unlock()
		// Answering at all: poll fast, a refused connect costs nothing.
		for {
			if _, err := getStatus(n.addr); err == nil {
				n.startMS = float64(time.Since(started)) / 1e6
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("node %d never answered /sweb/status:\n%s", i, c.tailLog(i))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	for i, n := range c.nodes {
		for {
			st, err := getStatus(n.addr)
			if err == nil && st.peersFresh(i, nodes) {
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("node %d saw no peer load sample within %s", i, readyTimeout)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	return c, nil
}

func (c *cluster) tailLog(i int) string {
	b, _ := os.ReadFile(filepath.Join(c.dir, fmt.Sprintf("node%d.log", i)))
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// stop ends every node: SIGTERM, then SIGKILL for any that outstays the
// grace period, and waits for each. The scratch directory goes too. An
// error means a child needed killing, which the caller reports loudly.
func (c *cluster) stop() error {
	for _, n := range c.nodes {
		_ = n.cmd.Process.Signal(syscall.SIGTERM)
	}
	var stuck []int
	for _, n := range c.nodes {
		done := make(chan struct{})
		go func() { _ = n.cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(stopGrace):
			stuck = append(stuck, n.id)
			_ = n.cmd.Process.Kill()
			<-done
		}
	}
	os.RemoveAll(c.dir)
	if len(stuck) > 0 {
		return fmt.Errorf("swebd node(s) %v ignored SIGTERM for %s and were killed", stuck, stopGrace)
	}
	return nil
}

var scrapeClient = &http.Client{
	Timeout:   5 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

func httpGet(addr, path string) ([]byte, error) {
	resp, err := scrapeClient.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s%s: %s", addr, path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// statusReport is the slice of /sweb/status the harness reads, decoded
// from the wire format rather than through the server's own types.
type statusReport struct {
	Peers []struct {
		Node       int  `json:"node"`
		HaveSample bool `json:"have_sample"`
		Available  bool `json:"available"`
	} `json:"peers"`
}

func getStatus(addr string) (*statusReport, error) {
	b, err := httpGet(addr, "/sweb/status")
	if err != nil {
		return nil, err
	}
	var st statusReport
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// peersFresh reports whether every node other than self has a usable row.
func (st *statusReport) peersFresh(self, nodes int) bool {
	fresh := 0
	for _, p := range st.Peers {
		if p.Node != self && p.HaveSample && p.Available {
			fresh++
		}
	}
	return fresh == nodes-1
}

// procSample is one reading of a process's kernel accounting.
type procSample struct {
	userS, sysS float64
	cpuS        float64 // exact on-CPU time where the kernel keeps it, else userS+sysS
	ctxsw       float64
	hwmMB       float64
}

// readProc samples /proc/<pid>: CPU from stat (whole thread group, dead
// threads included), the resident high-water mark from status, context
// switches summed over the live threads.
func readProc(pid int) (procSample, error) {
	var s procSample
	base := "/proc/" + strconv.Itoa(pid)
	b, err := os.ReadFile(base + "/stat")
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	f := bytes.Fields(rest)
	if len(f) < 13 {
		return s, fmt.Errorf("%s/stat: short line", base)
	}
	ut, _ := strconv.ParseFloat(string(f[11]), 64)
	st, _ := strconv.ParseFloat(string(f[12]), 64)
	s.userS, s.sysS = ut/clockTick, st/clockTick
	if v, err := statusField(base+"/status", "VmHWM:"); err == nil {
		s.hwmMB = v / 1024
	}
	// utime/stime are sampled at the 100 Hz tick: a server that works in
	// 100 us bursts 400 times a second is caught running by chance, and a
	// window's CPU total scatters by several percent. schedstat's first
	// field is the scheduler's own nanosecond count.
	tasks, _ := filepath.Glob(base + "/task/*")
	for _, t := range tasks {
		v, _ := statusField(t+"/status", "voluntary_ctxt_switches:")
		nv, _ := statusField(t+"/status", "nonvoluntary_ctxt_switches:")
		s.ctxsw += v + nv
		if b, err := os.ReadFile(t + "/schedstat"); err == nil {
			if f := bytes.Fields(b); len(f) > 0 {
				ns, _ := strconv.ParseFloat(string(f[0]), 64)
				s.cpuS += ns / 1e9
			}
		}
	}
	if s.cpuS == 0 {
		s.cpuS = s.userS + s.sysS
	}
	return s, nil
}

func statusField(path, key string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseFloat(fields[0], 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, key)
}
