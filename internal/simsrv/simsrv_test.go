package simsrv

import (
	"math"
	"math/rand"
	"testing"

	"sweb/internal/core"
	"sweb/internal/des"
	"sweb/internal/stats"
	"sweb/internal/storage"
	"sweb/internal/workload"
)

func smallStore(nodes, count int, size int64) (*storage.Store, []string) {
	st := storage.NewStore(nodes)
	paths := storage.UniformSet(st, count, size)
	return st, paths
}

func runBurst(t *testing.T, cfg Config, rps, dur int, paths []string) *stats.RunResult {
	t.Helper()
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	burst := workload.Burst{RPS: rps, DurationSeconds: dur, Jitter: true}
	arrivals, err := burst.Generate(workload.UniformPicker(paths), nil, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	return cl.RunSchedule(arrivals)
}

func TestConfigValidation(t *testing.T) {
	st, _ := smallStore(2, 2, 1024)
	cases := []Config{
		{},                                // no specs
		{Specs: MeikoSpecs(2)},            // no store
		{Specs: MeikoSpecs(3), Store: st}, // node count mismatch
		{Specs: MeikoSpecs(2), Store: st, Net: "token-ring"},
		{Specs: MeikoSpecs(2), Store: st, Policy: "best-effort"},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestAllRequestsComplete(t *testing.T) {
	st, paths := smallStore(3, 6, 64<<10)
	res := runBurst(t, MeikoConfig(3, st), 4, 5, paths)
	if res.Offered != 20 {
		t.Fatalf("offered = %d", res.Offered)
	}
	if res.Completed != 20 || res.Dropped() != 0 {
		t.Fatalf("completed=%d dropped=%d", res.Completed, res.Dropped())
	}
	if res.MeanResponse() <= 0 {
		t.Fatal("zero response time")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() *stats.RunResult {
		st, paths := smallStore(4, 8, 256<<10)
		cfg := MeikoConfig(4, st)
		cfg.Seed = 99
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		burst := workload.Burst{RPS: 10, DurationSeconds: 5, Jitter: true}
		arr, _ := burst.Generate(workload.UniformPicker(paths), nil, rand.New(rand.NewSource(5)))
		return cl.RunSchedule(arr)
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.Redirects != b.Redirects ||
		math.Abs(a.MeanResponse()-b.MeanResponse()) > 1e-12 {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
	for i := range a.PerNodeServed {
		if a.PerNodeServed[i] != b.PerNodeServed[i] {
			t.Fatalf("per-node differs: %v vs %v", a.PerNodeServed, b.PerNodeServed)
		}
	}
}

func TestRoundRobinServesWhereDNSSends(t *testing.T) {
	st, paths := smallStore(3, 6, 32<<10)
	cfg := MeikoConfig(3, st)
	cfg.Policy = PolicyRoundRobin
	res := runBurst(t, cfg, 6, 5, paths)
	if res.Redirects != 0 {
		t.Fatalf("rr redirected %d requests", res.Redirects)
	}
	// DNS rotation spreads 30 requests exactly 10-10-10.
	for i, n := range res.PerNodeServed {
		if n != 10 {
			t.Fatalf("node %d served %d (want 10): %v", i, n, res.PerNodeServed)
		}
	}
}

func TestFileLocalityServesAtOwner(t *testing.T) {
	st := storage.NewStore(3)
	// All files owned by node 2.
	var paths []string
	for i := 0; i < 3; i++ {
		p := []string{"/a.dat", "/b.dat", "/c.dat"}[i]
		st.MustAdd(storage.File{Path: p, Size: 32 << 10, Owner: 2})
		paths = append(paths, p)
	}
	cfg := MeikoConfig(3, st)
	cfg.Policy = PolicyFileLocality
	res := runBurst(t, cfg, 3, 4, paths)
	if res.PerNodeServed[2] != res.Completed {
		t.Fatalf("owner served %d of %d", res.PerNodeServed[2], res.Completed)
	}
	if res.Redirects == 0 {
		t.Fatal("no redirects despite foreign arrivals")
	}
}

func TestOverloadProducesDrops(t *testing.T) {
	st, paths := smallStore(1, 4, 1536<<10)
	cfg := MeikoConfig(1, st)
	res := runBurst(t, cfg, 40, 20, paths)
	if res.Dropped() == 0 {
		t.Fatal("a single node absorbing 40 rps of 1.5MB files must drop")
	}
	if res.Drops[stats.DropRefused] == 0 {
		t.Fatal("overload should overflow the accept capacity")
	}
}

func TestNodeFailureDropsItsArrivals(t *testing.T) {
	st, paths := smallStore(2, 4, 1024)
	cfg := MeikoConfig(2, st)
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.FailNodeAt(0, 1) // node 1 dead from the start; DNS keeps resolving to it
	burst := workload.Burst{RPS: 4, DurationSeconds: 3, Jitter: true}
	arr, _ := burst.Generate(workload.UniformPicker(paths), nil, rand.New(rand.NewSource(3)))
	res := cl.RunSchedule(arr)
	if res.Drops[stats.DropUnavailable] == 0 {
		t.Fatal("arrivals at the dead node should drop as unavailable")
	}
	if res.PerNodeServed[1] != 0 {
		t.Fatal("dead node served requests")
	}
	// Half the rotation lands on the dead node.
	if res.Completed != res.Offered-res.Dropped() {
		t.Fatal("accounting mismatch")
	}
}

func TestNodeRecoveryRestoresService(t *testing.T) {
	st, paths := smallStore(2, 4, 1024)
	cfg := MeikoConfig(2, st)
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.FailNodeAt(0, 1)
	cl.RecoverNodeAt(5*des.Second, 1)
	burst := workload.Burst{RPS: 4, DurationSeconds: 10, Jitter: true}
	arr, _ := burst.Generate(workload.UniformPicker(paths), nil, rand.New(rand.NewSource(4)))
	res := cl.RunSchedule(arr)
	if res.PerNodeServed[1] == 0 {
		t.Fatal("recovered node never served")
	}
	if res.Drops[stats.DropUnavailable] == 0 {
		t.Fatal("pre-recovery arrivals should have dropped")
	}
}

func TestSWEBAvoidsDeadPeers(t *testing.T) {
	// All files on node 0; node 0 dies. SWEB brokers elsewhere must not
	// redirect into the void once loadd times node 0 out.
	st := storage.NewStore(3)
	hot := storage.SkewedSet(st, 256<<10)
	cfg := MeikoConfig(3, st)
	cfg.LoaddTimeout = 4
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.FailNodeAt(2*des.Second, 0)
	burst := workload.Burst{RPS: 6, DurationSeconds: 15, Jitter: true}
	arr, _ := burst.Generate(workload.SinglePicker(hot), nil, rand.New(rand.NewSource(6)))
	res := cl.RunSchedule(arr)
	// Arrivals DNS-routed to node 0 drop; arrivals elsewhere must all
	// complete (~2/3 of traffic), so drops stay well below half.
	if rate := res.DropRate(); rate > 0.45 {
		t.Fatalf("drop rate %v: brokers kept redirecting to the dead owner", rate)
	}
	if res.PerNodeServed[1] == 0 || res.PerNodeServed[2] == 0 {
		t.Fatalf("survivors idle: %v", res.PerNodeServed)
	}
}

func TestCGIPinnedAndCharged(t *testing.T) {
	st := storage.NewStore(2)
	cgi := storage.AddCGISet(st, 2, 20e6, 2048)
	cfg := MeikoConfig(2, st)
	res := runBurst(t, cfg, 2, 4, cgi)
	if res.Completed != res.Offered {
		t.Fatalf("cgi drops: %d/%d", res.Completed, res.Offered)
	}
	if res.Redirects != 0 {
		t.Fatal("CGI requests must be pinned where they arrive")
	}
	if res.CPUShare["cgi"] == 0 {
		t.Fatal("CGI compute not accounted")
	}
}

func TestNotFoundServedLocally(t *testing.T) {
	st, _ := smallStore(2, 2, 1024)
	cfg := MeikoConfig(2, st)
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	burst := workload.Burst{RPS: 2, DurationSeconds: 3, Jitter: true}
	arr, _ := burst.Generate(workload.SinglePicker("/does/not/exist"), nil, rand.New(rand.NewSource(8)))
	res := cl.RunSchedule(arr)
	if res.Completed != res.Offered {
		t.Fatalf("errors not served: %d/%d", res.Completed, res.Offered)
	}
	if res.Redirects != 0 {
		t.Fatal("404s must never be redirected")
	}
	// Error responses are tiny and fast.
	if res.MeanResponse() > 0.5 {
		t.Fatalf("404 took %v", res.MeanResponse())
	}
}

func TestCacheWarmsAcrossRequests(t *testing.T) {
	st, paths := smallStore(2, 2, 256<<10)
	cfg := MeikoConfig(2, st)
	res := runBurst(t, cfg, 8, 10, paths)
	if res.CacheHitRate <= 0.5 {
		t.Fatalf("hit rate %v after 80 requests over 2 files", res.CacheHitRate)
	}
}

func TestPhaseBreakdownSumsToResponse(t *testing.T) {
	st, paths := smallStore(2, 4, 512<<10)
	cfg := MeikoConfig(2, st)
	res := runBurst(t, cfg, 4, 5, paths)
	sum := res.Phases.Preprocess.Mean() + res.Phases.Analysis.Mean() +
		res.Phases.Redirect.Mean() + res.Phases.Transfer.Mean() + res.Phases.Network.Mean()
	if math.Abs(sum-res.MeanResponse()) > 0.01*res.MeanResponse()+1e-6 {
		t.Fatalf("phases sum to %v, response %v", sum, res.MeanResponse())
	}
}

func TestCPUShareAccounting(t *testing.T) {
	st, paths := smallStore(2, 4, 512<<10)
	res := runBurst(t, MeikoConfig(2, st), 6, 5, paths)
	for _, key := range []string{"parse", "schedule", "loadd", "fulfill"} {
		if res.CPUShare[key] <= 0 {
			t.Fatalf("activity %q has zero CPU share: %v", key, res.CPUShare)
		}
	}
	var total float64
	for _, v := range res.CPUShare {
		total += v
	}
	if total >= 1 {
		t.Fatalf("CPU shares exceed capacity: %v", total)
	}
	// The scheduling machinery must cost far less than request work
	// (Sec. 4.3's headline claim).
	if res.CPUShare["schedule"]+res.CPUShare["loadd"] > res.CPUShare["parse"] {
		t.Fatalf("overhead exceeds parsing: %v", res.CPUShare)
	}
}

func TestDNSCacheSkewsRoundRobin(t *testing.T) {
	st, paths := smallStore(3, 6, 1024)
	cfg := MeikoConfig(3, st)
	cfg.Policy = PolicyRoundRobin
	cfg.DNSCacheTTL = 300
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	burst := workload.Burst{RPS: 6, DurationSeconds: 5, Jitter: true}
	arr, _ := burst.Generate(workload.UniformPicker(paths), workload.NewDomainPool(1),
		rand.New(rand.NewSource(9)))
	res := cl.RunSchedule(arr)
	// One cached domain: everything lands on one node.
	nonZero := 0
	for _, n := range res.PerNodeServed {
		if n > 0 {
			nonZero++
		}
	}
	if nonZero != 1 {
		t.Fatalf("DNS caching should funnel to one node: %v", res.PerNodeServed)
	}
}

func TestMaxRedirectsHonored(t *testing.T) {
	st := storage.NewStore(2)
	hot := storage.SkewedSet(st, 512<<10)
	cfg := MeikoConfig(2, st)
	cfg.Policy = PolicyFileLocality
	p := core.DefaultParams()
	p.MaxRedirects = 0
	cfg.Params = p
	cfg.HaveParams = true
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	burst := workload.Burst{RPS: 2, DurationSeconds: 3, Jitter: true}
	arr, _ := burst.Generate(workload.SinglePicker(hot), nil, rand.New(rand.NewSource(10)))
	res := cl.RunSchedule(arr)
	if res.Redirects != 0 {
		t.Fatalf("MaxRedirects=0 yet %d redirects", res.Redirects)
	}
}

func TestRemoteFetchesCrossTheInterconnect(t *testing.T) {
	// Round robin with files all owned by node 0: node 1 must fetch
	// remotely, showing up as disk traffic at the owner only.
	st := storage.NewStore(2)
	var paths []string
	for _, p := range []string{"/x.dat", "/y.dat"} {
		st.MustAdd(storage.File{Path: p, Size: 512 << 10, Owner: 0})
		paths = append(paths, p)
	}
	cfg := MeikoConfig(2, st)
	cfg.Policy = PolicyRoundRobin
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	burst := workload.Burst{RPS: 2, DurationSeconds: 2, Jitter: true}
	arr, _ := burst.Generate(workload.UniformPicker(paths), nil, rand.New(rand.NewSource(11)))
	cl.RunSchedule(arr)
	if cl.Node(0).DiskReads == 0 {
		t.Fatal("owner disk never read")
	}
	if cl.Node(1).DiskReads != 0 {
		t.Fatal("non-owner read its own disk for foreign files")
	}
}

func TestZeroByteFileServed(t *testing.T) {
	st := storage.NewStore(1)
	st.MustAdd(storage.File{Path: "/empty.dat", Size: 0, Owner: 0})
	cfg := MeikoConfig(1, st)
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	burst := workload.Burst{RPS: 1, DurationSeconds: 2, Jitter: true}
	arr, _ := burst.Generate(workload.SinglePicker("/empty.dat"), nil, rand.New(rand.NewSource(12)))
	res := cl.RunSchedule(arr)
	if res.Completed != 2 {
		t.Fatalf("completed = %d", res.Completed)
	}
}

func TestMoreNodesReduceResponseUnderLoad(t *testing.T) {
	mean := func(nodes int) float64 {
		st, paths := smallStore(nodes, 12, 1536<<10)
		cfg := MeikoConfig(nodes, st)
		cfg.ClientTimeout = 600 * des.Second
		res := runBurst(t, cfg, 12, 8, paths)
		return res.MeanResponse()
	}
	one, six := mean(1), mean(6)
	if six >= one/2 {
		t.Fatalf("scaling broken: 1 node %vs, 6 nodes %vs", one, six)
	}
}

func TestSWEBOutperformsRoundRobinOnHotSpot(t *testing.T) {
	run := func(policy string) float64 {
		st := storage.NewStore(4)
		hot := storage.SkewedSet(st, 1536<<10)
		cfg := MeikoConfig(4, st)
		cfg.Policy = policy
		cfg.ClientTimeout = 600 * des.Second
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		burst := workload.Burst{RPS: 8, DurationSeconds: 15, Jitter: true}
		arr, _ := burst.Generate(workload.SinglePicker(hot), nil, rand.New(rand.NewSource(13)))
		return cl.RunSchedule(arr).MeanResponse()
	}
	fl, sweb := run(PolicyFileLocality), run(PolicySWEB)
	if sweb >= fl {
		t.Fatalf("SWEB (%vs) must beat file locality (%vs) on the hot spot", sweb, fl)
	}
}

// TestRoundRobinRecordsNoPrediction: round robin predicts nothing (its
// estimate is 0), so every served flight record must say -1 — the same
// "no prediction" rule a live node's records follow.
func TestRoundRobinRecordsNoPrediction(t *testing.T) {
	st, paths := smallStore(3, 6, 32<<10)
	cfg := MeikoConfig(3, st)
	cfg.Policy = PolicyRoundRobin
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	burst := workload.Burst{RPS: 10, DurationSeconds: 3, Jitter: true}
	arr, err := burst.Generate(workload.UniformPicker(paths), nil, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	cl.RunSchedule(arr)
	served := 0
	for x := 0; x < cl.Nodes(); x++ {
		for _, r := range cl.FlightDump(x).Records {
			if r.Policy == "" {
				continue
			}
			served++
			if r.PredictedSeconds != -1 {
				t.Errorf("node %d served %s with predicted_seconds %v, want -1", x, r.Path, r.PredictedSeconds)
			}
		}
	}
	if served == 0 {
		t.Fatal("no served flight records")
	}
}
