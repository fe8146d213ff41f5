package live

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"sweb/internal/httpd"
	"sweb/internal/leakcheck"
	"sweb/internal/metrics"
	"sweb/internal/nodeobs"
	"sweb/internal/storage"
)

// waitKnown polls until every listed server's loadd table has heard from
// want nodes, failing the test after deadline.
func waitKnown(t *testing.T, servers []int, cl *Cluster, want int, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		full := true
		for _, i := range servers {
			if len(cl.Servers[i].Table().Known()) < want {
				full = false
			}
		}
		if full {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, i := range servers {
		t.Logf("node %d knows %v", i, cl.Servers[i].Table().Known())
	}
	t.Fatalf("gossip did not converge to %d nodes within %v", want, deadline)
}

// TestChaosNodeKilledMidRun is the acceptance scenario: three nodes, 20%
// simulated broadcast loss, one node killed mid-run. Every request for a
// surviving-node-owned document must keep succeeding (the client's
// failover budget covers the stale-table window), no request may be 302'd
// to the dead node once its loadd row times out, and owner-dead fetches
// must degrade to 503 with Retry-After only after the retry budget.
func TestChaosNodeKilledMidRun(t *testing.T) {
	const (
		nodes        = 3
		dead         = 2
		loaddPeriod  = 50 * time.Millisecond
		loaddTimeout = 600 * time.Millisecond
		fetchBackoff = 30 * time.Millisecond
	)
	st := storage.NewStore(nodes)
	paths := storage.UniformSet(st, 9, 4096)
	cl, err := Start(Options{
		Nodes: nodes, Store: st, BaseDir: t.TempDir(), Policy: "sweb",
		Node: httpd.Config{
			LoaddPeriod:   loaddPeriod,
			LoaddTimeout:  loaddTimeout,
			FetchAttempts: 3,
			FetchBackoff:  fetchBackoff,
		},
		Faults: &Faults{BroadcastLoss: 0.2, Seed: 42},
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	byOwner := make(map[int][]string)
	for _, p := range paths {
		o, _ := st.Owner(p)
		byOwner[o] = append(byOwner[o], p)
	}
	var survivorPaths []string
	for o, ps := range byOwner {
		if o != dead {
			survivorPaths = append(survivorPaths, ps...)
		}
	}
	if len(survivorPaths) == 0 || len(byOwner[dead]) == 0 {
		t.Fatal("uniform set did not cover every owner")
	}

	waitKnown(t, []int{0, 1, 2}, cl, nodes, 10*time.Second)

	client := cl.NewClient()
	// Budget generous enough to ride out the stale-table window in which
	// survivors may still 302 toward the corpse.
	client.SetRetry(8, 100*time.Millisecond)

	// Sanity traffic with everything alive.
	for _, p := range survivorPaths {
		res, err := client.Get(p)
		if err != nil || res.Status != 200 {
			t.Fatalf("pre-kill %s: res=%+v err=%v", p, res, err)
		}
	}

	if err := cl.Kill(dead); err != nil {
		t.Fatal(err)
	}

	// Mid-run: the dead node's loadd row is still fresh on the survivors,
	// and the rotation still resolves to its address. Requests for
	// surviving-owned documents must nevertheless succeed within the
	// failover budget.
	for _, p := range survivorPaths {
		res, err := client.Get(p)
		if err != nil {
			t.Fatalf("mid-run %s failed past the retry budget: %v", p, err)
		}
		if res.Status != 200 {
			t.Fatalf("mid-run %s: status %d", p, res.Status)
		}
	}

	// Let the dead node's row expire everywhere (timeout plus slack for
	// the lossy gossip to refresh the survivors' mutual rows).
	time.Sleep(loaddTimeout + 4*loaddPeriod)

	// The survivors must still see each other...
	waitKnown(t, []int{0, 1}, cl, 2, 5*time.Second)

	// ...and never 302 anything toward the corpse.
	deadAddr := cl.Servers[dead].Addr()
	for _, i := range []int{0, 1} {
		for _, p := range paths {
			status, hdr, _ := directGet(t, cl.Servers[i].Addr(), p)
			if status == 302 && strings.Contains(hdr.Get("Location"), deadAddr) {
				t.Fatalf("node %d still redirects %s to the dead node", i, p)
			}
		}
	}

	// The scraped metrics must tell the same story: only the survivors
	// answer /sweb/metrics, and from here on the cluster-wide count of
	// 302s aimed at the dead node must not move.
	preSamples, up := cl.ScrapeMetrics()
	if up != nodes-1 {
		t.Fatalf("scrape reached %d nodes, want %d survivors", up, nodes-1)
	}
	deadTargetLabel := metrics.Labels{"target": strconv.Itoa(dead)}
	deadRedirectsBefore := MetricValue(preSamples, "sweb_redirect_targets_total", deadTargetLabel)

	// Owner-dead documents degrade to 503 + Retry-After, and only after
	// the retry budget: the two backoff sleeps put a floor on elapsed.
	deadPath := byOwner[dead][0]
	start := time.Now()
	status, hdr, _ := directGet(t, cl.Servers[0].Addr(), deadPath+"?swebr=1")
	elapsed := time.Since(start)
	if status != 503 {
		t.Fatalf("owner-dead fetch: status %d, want 503", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("degraded 503 missing Retry-After")
	}
	if elapsed < fetchBackoff {
		t.Fatalf("503 after %v — retry budget was not exercised", elapsed)
	}

	// And the surviving-owned world keeps serving.
	for _, p := range survivorPaths {
		res, err := client.Get(p)
		if err != nil || res.Status != 200 {
			t.Fatalf("post-timeout %s: res=%+v err=%v", p, res, err)
		}
	}

	// Post-mortem via the observability layer: the owner-dead 503 shows up
	// as an owner_unreachable drop, the post-expiry traffic added no 302s
	// toward the corpse, and the cluster report agrees nothing was refused.
	postSamples, up := cl.ScrapeMetrics()
	if up != nodes-1 {
		t.Fatalf("post-traffic scrape reached %d nodes, want %d", up, nodes-1)
	}
	if v := MetricValue(postSamples, "sweb_drops_total", metrics.Labels{"cause": "owner_unreachable"}); v < 1 {
		t.Fatalf("owner_unreachable drops = %v, want >= 1", v)
	}
	if after := MetricValue(postSamples, "sweb_redirect_targets_total", deadTargetLabel); after != deadRedirectsBefore {
		t.Fatalf("redirects to dead node grew after expiry: %v -> %v", deadRedirectsBefore, after)
	}
	rep, err := cl.Report()
	if err != nil {
		t.Fatal(err)
	}
	if rep.NodesUp != nodes-1 || rep.Refused != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Drops["owner_unreachable"] < 1 {
		t.Fatalf("report drops = %v", rep.Drops)
	}
}

// waitFor polls cond until it holds, failing the test after deadline.
func waitFor(t *testing.T, what string, deadline time.Duration, cond func() bool) {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s (%v)", what, deadline)
}

// peerAvailable reports whether srv's loadd table offers peer to the
// broker: the availability verdict /sweb/status publishes per peer.
func peerAvailable(srv *httpd.Server, peer int) bool {
	for _, h := range srv.StatusReport().Peers {
		if h.Node == peer {
			return h.Available
		}
	}
	return false
}

// waitAvailable waits until every listed server's table reads peer as
// available (or, with want false, as unavailable).
func waitAvailable(t *testing.T, cl *Cluster, servers []int, peer int, want bool) {
	t.Helper()
	waitFor(t, fmt.Sprintf("node %d to read available=%v on %v", peer, want, servers), 10*time.Second, func() bool {
		for _, i := range servers {
			if peerAvailable(cl.Servers[i], peer) != want {
				return false
			}
		}
		return true
	})
}

// gossipAge scrapes addr's /sweb/metrics for the age of peer's last load
// broadcast.
func gossipAge(t *testing.T, addr string, peer int) float64 {
	t.Helper()
	samples, err := Metrics(addr)
	if err != nil {
		t.Fatal(err)
	}
	age, ok := metrics.Value(samples, nodeobs.GossipAge, metrics.Labels{"peer": strconv.Itoa(peer)})
	if !ok {
		t.Fatalf("%s publishes no %s for peer %d", addr, nodeobs.GossipAge, peer)
	}
	return age
}

// TestMonitorAlertsOnKillAndRestart checks that a killed node shows up in
// everything the survivors publish, and that Restart clears it: the
// corpse stops answering scrapes, every survivor's loadd table stops
// offering it, and each survivor's /sweb/metrics shows its last broadcast
// aging past the loadd timeout.
func TestMonitorAlertsOnKillAndRestart(t *testing.T) {
	leakcheck.Check(t)
	const (
		nodes        = 3
		dead         = 2
		loaddPeriod  = 50 * time.Millisecond
		loaddTimeout = 400 * time.Millisecond
	)
	survivors := []int{0, 1}
	st := storage.NewStore(nodes)
	storage.UniformSet(st, 6, 2048)
	cl, err := Start(Options{
		Nodes: nodes, Store: st, BaseDir: t.TempDir(), Policy: "sweb",
		Node: httpd.Config{
			LoaddPeriod:  loaddPeriod,
			LoaddTimeout: loaddTimeout,
		},
		Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitKnown(t, []int{0, 1, 2}, cl, nodes, 10*time.Second)

	// A healthy cluster: every node answers, every peer row is fresh.
	waitAvailable(t, cl, survivors, dead, true)
	if _, up := cl.ScrapeMetrics(); up != nodes {
		t.Fatalf("healthy scrape reached %d nodes, want %d", up, nodes)
	}
	for _, i := range survivors {
		if age := gossipAge(t, cl.Servers[i].Addr(), dead); age < 0 || age > loaddTimeout.Seconds() {
			t.Fatalf("healthy node %d reads node %d's broadcast age %v", i, dead, age)
		}
	}

	if err := cl.Kill(dead); err != nil {
		t.Fatal(err)
	}
	if _, up := cl.ScrapeMetrics(); up != nodes-1 {
		t.Fatalf("scrape after the kill reached %d nodes, want %d survivors", up, nodes-1)
	}
	waitAvailable(t, cl, survivors, dead, false)
	for _, i := range survivors {
		if age := gossipAge(t, cl.Servers[i].Addr(), dead); age <= loaddTimeout.Seconds() {
			t.Fatalf("node %d reads the corpse's broadcast age %v, want past the %v timeout", i, age, loaddTimeout)
		}
	}

	if err := cl.Restart(dead); err != nil {
		t.Fatal(err)
	}
	waitAvailable(t, cl, survivors, dead, true)
	for _, i := range survivors {
		if age := gossipAge(t, cl.Servers[i].Addr(), dead); age < 0 || age > loaddTimeout.Seconds() {
			t.Fatalf("node %d reads the restarted node's broadcast age %v", i, age)
		}
	}
	if _, up := cl.ScrapeMetrics(); up != nodes {
		t.Fatalf("scrape after the restart reached %d nodes, want %d", up, nodes)
	}
}

// TestGossipConvergesUnderLoss drops 30% of loadd datagrams and checks the
// tables still converge: the paper's 2-3s broadcast cadence is itself the
// retransmission mechanism.
func TestGossipConvergesUnderLoss(t *testing.T) {
	leakcheck.Check(t)
	st := storage.NewStore(3)
	storage.UniformSet(st, 3, 1024)
	cl, err := Start(Options{
		Nodes: 3, Store: st, BaseDir: t.TempDir(),
		Node:   httpd.Config{LoaddPeriod: 50 * time.Millisecond},
		Faults: &Faults{BroadcastLoss: 0.3, Seed: 9},
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitKnown(t, []int{0, 1, 2}, cl, 3, 10*time.Second)
}

// TestDialLatencyInjection slows the interconnect and checks the remote
// fetch path both survives it and actually pays it.
func TestDialLatencyInjection(t *testing.T) {
	const lag = 60 * time.Millisecond
	st := storage.NewStore(2)
	storage.UniformSet(st, 2, 2048)
	cl, err := Start(Options{
		Nodes: 2, Store: st, BaseDir: t.TempDir(), Policy: "rr",
		Faults: &Faults{DialLatency: lag},
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var owned1 string
	for _, p := range st.Paths() {
		if o, _ := st.Owner(p); o == 1 {
			owned1 = p
		}
	}
	// Round-robin never redirects, so node 0 must relay via the slowed
	// internal fetch.
	start := time.Now()
	status, _, body := directGet(t, cl.Servers[0].Addr(), owned1)
	if status != 200 || len(body) != 2048 {
		t.Fatalf("status=%d len=%d", status, len(body))
	}
	if d := time.Since(start); d < lag {
		t.Fatalf("remote fetch took %v, injected latency %v not paid", d, lag)
	}
}

// TestCacheServesDeadOwnerDocuments is the cache's availability dividend:
// a document relayed from its owner is cached at the relaying node, so
// killing the owner leaves warm documents servable while cold ones degrade
// to 503 — and restarting the owner brings the cold ones back.
func TestCacheServesDeadOwnerDocuments(t *testing.T) {
	const owner = 1
	st := storage.NewStore(2)
	paths := storage.UniformSet(st, 6, 4096)
	cl, err := Start(Options{
		// Round-robin never redirects, so node 0 must relay owner-held
		// documents through the internal fetch path — the path that fills
		// its cache with foreign documents.
		Nodes: 2, Store: st, BaseDir: t.TempDir(), Policy: "rr",
		Node: httpd.Config{FetchAttempts: 1},
		Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var ownerPaths []string
	for _, p := range paths {
		if o, _ := st.Owner(p); o == owner {
			ownerPaths = append(ownerPaths, p)
		}
	}
	if len(ownerPaths) < 2 {
		t.Fatal("uniform set left the owner under-provisioned")
	}
	warm, cold := ownerPaths[0], ownerPaths[1]

	client := cl.NewClient()
	res, err := client.GetVia(0, warm)
	if err != nil || res.Status != 200 {
		t.Fatalf("warm-up relay: res=%+v err=%v", res, err)
	}
	warmBody := res.Body
	if !cl.Servers[0].Cache().Peek(warm) {
		t.Fatal("relayed document not resident in the relaying node's cache")
	}

	if err := cl.Kill(owner); err != nil {
		t.Fatal(err)
	}

	// The warm document survives its owner: served from node 0's memory.
	res, err = client.GetVia(0, warm)
	if err != nil || res.Status != 200 {
		t.Fatalf("warm fetch with owner dead: res=%+v err=%v", res, err)
	}
	if string(res.Body) != string(warmBody) {
		t.Fatal("cached body diverged from the owner's original")
	}
	// The cold one has nowhere to come from: degraded 503.
	res, err = client.GetVia(0, cold)
	if err != nil {
		t.Fatalf("cold fetch errored instead of degrading: %v", err)
	}
	if res.Status != 503 {
		t.Fatalf("cold fetch with owner dead: status %d, want 503", res.Status)
	}

	// Restart heals the cold path while the warm one keeps hitting.
	if err := cl.Restart(owner); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "restarted owner to answer relays", 10*time.Second, func() bool {
		res, err := client.GetVia(0, cold)
		return err == nil && res.Status == 200
	})
	res, err = client.GetVia(0, warm)
	if err != nil || res.Status != 200 || string(res.Body) != string(warmBody) {
		t.Fatalf("warm fetch after restart: res=%+v err=%v", res, err)
	}

	// The scraped story agrees: the cluster counted cache hits for the
	// warm document's repeat fetches.
	samples, _ := cl.ScrapeMetrics()
	if v := MetricValue(samples, "sweb_cache_hits_total", nil); v < 2 {
		t.Fatalf("cluster cache hits = %v, want >= 2", v)
	}
}

// TestClientFailsOverDeadEntryNode kills a node and checks the client
// rides the rotation past its address without an error surfacing.
func TestClientFailsOverDeadEntryNode(t *testing.T) {
	st := storage.NewStore(2)
	paths := storage.UniformSet(st, 4, 1024)
	cl, err := Start(Options{Nodes: 2, Store: st, BaseDir: t.TempDir(), Policy: "rr", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Kill(1); err != nil {
		t.Fatal(err)
	}
	client := cl.NewClient()
	for _, p := range paths {
		o, _ := st.Owner(p)
		if o != 0 {
			continue
		}
		// The rotation alternates 0,1,0,1...; every fetch must succeed
		// regardless of which address comes up first.
		for i := 0; i < 2; i++ {
			res, err := client.Get(p)
			if err != nil || res.Status != 200 {
				t.Fatalf("%s: res=%+v err=%v", p, res, err)
			}
		}
	}
}
