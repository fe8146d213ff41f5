package core

import (
	"math"
	"testing"
	"testing/quick"
)

// evenLoads builds n identical available rows with the Meiko capabilities.
func evenLoads(n int) []NodeLoad {
	loads := make([]NodeLoad, n)
	for i := range loads {
		loads[i] = NodeLoad{
			Available:       true,
			CPUOpsPerSec:    40e6,
			DiskBytesPerSec: 5e6,
			NetBytesPerSec:  4.5e6,
		}
	}
	return loads
}

func baseRequest() Request {
	return Request{
		Path:      "/doc.dat",
		Size:      1536 << 10,
		Owner:     0,
		Ops:       800e3,
		DiskBytes: 1536 << 10,
		Arrived:   1,
	}
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	if p.Delta != 0.30 || p.MaxRedirects != 1 {
		t.Fatalf("paper calibration changed: %+v", p)
	}
	if !p.UseCPUFacet || !p.UseDiskFacet || !p.UseNetFacet {
		t.Fatal("all facets must default on")
	}
}

func TestParamsValidateErrors(t *testing.T) {
	mk := func(mut func(*Params)) Params {
		p := DefaultParams()
		mut(&p)
		return p
	}
	bad := []Params{
		mk(func(p *Params) { p.Delta = -0.1 }),
		mk(func(p *Params) { p.RedirectCPUSeconds = -1 }),
		mk(func(p *Params) { p.ClientLatencySeconds = -1 }),
		mk(func(p *Params) { p.ConnectSeconds = -1 }),
		mk(func(p *Params) { p.RemotePenalty = 0.9 }),
		mk(func(p *Params) { p.MaxRedirects = -1 }),
		mk(func(p *Params) { p.RedirectAdvantage = 0 }),
		mk(func(p *Params) { p.RedirectAdvantage = 1.5 }),
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestEstimateLocalVsRemoteData(t *testing.T) {
	s := NewSWEB(DefaultParams())
	req := baseRequest()
	loads := evenLoads(3)
	atOwner := s.EstimateCost(req, 0, 0, loads)
	atOther := s.EstimateCost(req, 1, 1, loads)
	// Owner reads at b1=5MB/s; the other node fetches at b2=4.5MB/s.
	wantOwner := float64(req.DiskBytes) / 5e6
	wantOther := float64(req.DiskBytes) / 4.5e6
	if math.Abs(atOwner.Data-wantOwner) > 1e-9 {
		t.Fatalf("owner data = %v want %v", atOwner.Data, wantOwner)
	}
	if math.Abs(atOther.Data-wantOther) > 1e-9 {
		t.Fatalf("remote data = %v want %v", atOther.Data, wantOther)
	}
}

func TestEstimateRedirectTermOnlyForRemoteTargets(t *testing.T) {
	s := NewSWEB(DefaultParams())
	req := baseRequest()
	loads := evenLoads(3)
	local := s.EstimateCost(req, 1, 1, loads)
	remote := s.EstimateCost(req, 1, 2, loads)
	if local.Redirect != 0 {
		t.Fatalf("local redirect cost = %v", local.Redirect)
	}
	want := 2*s.P.ClientLatencySeconds + s.P.ConnectSeconds + s.P.RedirectCPUSeconds
	if math.Abs(remote.Redirect-want) > 1e-12 {
		t.Fatalf("remote redirect cost = %v want %v", remote.Redirect, want)
	}
}

func TestEstimateCPUDegradesWithLoad(t *testing.T) {
	s := NewSWEB(DefaultParams())
	req := baseRequest()
	loads := evenLoads(2)
	idle := s.EstimateCost(req, 0, 1, loads).CPU
	loads[1].CPULoad = 3
	busy := s.EstimateCost(req, 0, 1, loads).CPU
	if math.Abs(busy-4*idle) > 1e-9 {
		t.Fatalf("cpu cost: idle=%v busy=%v, want 4x", idle, busy)
	}
}

func TestEstimateDiskLoadDegradesOwnerFetch(t *testing.T) {
	s := NewSWEB(DefaultParams())
	req := baseRequest()
	loads := evenLoads(2)
	base := s.EstimateCost(req, 0, 0, loads).Data
	loads[0].DiskLoad = 1
	degraded := s.EstimateCost(req, 0, 0, loads).Data
	if math.Abs(degraded-2*base) > 1e-9 {
		t.Fatalf("disk degradation: %v -> %v, want 2x", base, degraded)
	}
}

func TestEstimateRemoteUsesMinOfDiskAndNet(t *testing.T) {
	s := NewSWEB(DefaultParams())
	req := baseRequest()
	loads := evenLoads(2)
	// Saturate the owner's disk so it becomes the bottleneck.
	loads[0].DiskLoad = 9 // effective 0.5 MB/s < b2
	cb := s.EstimateCost(req, 1, 1, loads)
	want := float64(req.DiskBytes) / (5e6 / 10)
	if math.Abs(cb.Data-want) > 1e-9 {
		t.Fatalf("remote data = %v want %v (owner-disk bound)", cb.Data, want)
	}
}

func TestEstimateUnavailableNodeInfeasible(t *testing.T) {
	s := NewSWEB(DefaultParams())
	loads := evenLoads(2)
	loads[1].Available = false
	cb := s.EstimateCost(baseRequest(), 0, 1, loads)
	if !cb.Infeasible || !math.IsInf(cb.Total, 1) {
		t.Fatalf("dead node feasible: %+v", cb)
	}
}

func TestEstimateCachedLocalSkipsData(t *testing.T) {
	s := NewSWEB(DefaultParams())
	req := baseRequest()
	req.CachedLocal = true
	loads := evenLoads(3)
	local := s.EstimateCost(req, 1, 1, loads)
	if local.Data != 0 {
		t.Fatalf("cached-local data = %v", local.Data)
	}
	// Only the broker's own node benefits: other candidates don't.
	other := s.EstimateCost(req, 1, 2, loads)
	if other.Data == 0 {
		t.Fatal("cache knowledge leaked to remote candidate")
	}
}

func TestEstimateNetTermUsesEgressShare(t *testing.T) {
	s := NewSWEB(DefaultParams())
	req := baseRequest()
	loads := evenLoads(2)
	idle := s.EstimateCost(req, 0, 0, loads).Net
	loads[0].NetLoad = 2
	busy := s.EstimateCost(req, 0, 0, loads).Net
	if idle <= 0 || math.Abs(busy-3*idle) > 1e-9 {
		t.Fatalf("net term: idle=%v busy=%v", idle, busy)
	}
}

func TestChoosePrefersOwnerWhenMarginDisabled(t *testing.T) {
	p := DefaultParams()
	p.RedirectAdvantage = 1.0 // no conservatism: raw cost minimization
	s := NewSWEB(p)
	req := baseRequest() // owner 0, arrived at 1
	dec := s.Choose(req, 1, evenLoads(3))
	if dec.Target != 0 {
		t.Fatalf("idle cluster should exploit locality, chose %d", dec.Target)
	}
}

func TestChooseMarginSuppressesMarginalRedirect(t *testing.T) {
	// With the default 30% advantage requirement, the small b1-vs-b2 gap
	// on an idle cluster is not worth a round trip to the client.
	s := NewSWEB(DefaultParams())
	dec := s.Choose(baseRequest(), 1, evenLoads(3))
	if dec.Target != 1 {
		t.Fatalf("marginal redirect issued to %d", dec.Target)
	}
}

func TestChooseAvoidsOverloadedOwner(t *testing.T) {
	s := NewSWEB(DefaultParams())
	req := baseRequest()
	loads := evenLoads(3)
	loads[0].DiskLoad = 20
	loads[0].NetLoad = 20
	loads[0].CPULoad = 20
	dec := s.Choose(req, 1, loads)
	if dec.Target == 0 {
		t.Fatal("chose the melted owner")
	}
	if dec.Target != 1 {
		t.Fatalf("should serve locally, chose %d", dec.Target)
	}
}

func TestChooseRedirectAdvantageMargin(t *testing.T) {
	p := DefaultParams()
	p.RedirectAdvantage = 0.7
	s := NewSWEB(p)
	req := baseRequest()
	loads := evenLoads(3)
	// Make node 2 marginally better than local node 1 (same data path,
	// slightly lower CPU load).
	loads[1].CPULoad = 0.2
	dec := s.Choose(req, 1, loads)
	if dec.Target == 2 {
		t.Fatal("marginal win must not trigger a redirect")
	}
}

func TestChooseRedirectCountPinsRequest(t *testing.T) {
	s := NewSWEB(DefaultParams())
	req := baseRequest()
	req.RedirectCount = 1 // already redirected once
	loads := evenLoads(3)
	loads[1].CPULoad = 50 // local looks terrible
	dec := s.Choose(req, 1, loads)
	if dec.Target != 1 {
		t.Fatalf("redirected request moved again to %d (ping-pong)", dec.Target)
	}
}

func TestChoosePinnedLocalStaysLocal(t *testing.T) {
	s := NewSWEB(DefaultParams())
	req := baseRequest()
	req.PinnedLocal = true
	dec := s.Choose(req, 1, evenLoads(3))
	if dec.Target != 1 {
		t.Fatalf("pinned request moved to %d", dec.Target)
	}
}

func TestChooseAllPeersDeadServesLocally(t *testing.T) {
	s := NewSWEB(DefaultParams())
	loads := evenLoads(3)
	for i := range loads {
		loads[i].Available = false
	}
	dec := s.Choose(baseRequest(), 1, loads)
	if dec.Target != 1 {
		t.Fatalf("with everyone dead, serve locally; chose %d", dec.Target)
	}
}

func TestChooseMaxRedirectsZeroDisablesScheduling(t *testing.T) {
	p := DefaultParams()
	p.MaxRedirects = 0
	s := NewSWEB(p)
	loads := evenLoads(3)
	loads[1].CPULoad = 100
	dec := s.Choose(baseRequest(), 1, loads)
	if dec.Target != 1 {
		t.Fatalf("MaxRedirects=0 still redirected to %d", dec.Target)
	}
}

func TestRoundRobinAlwaysLocal(t *testing.T) {
	var rr RoundRobin
	if rr.Name() != "Round Robin" {
		t.Fatal("name")
	}
	loads := evenLoads(3)
	loads[2].CPULoad = 1000
	for local := 0; local < 3; local++ {
		if dec := rr.Choose(baseRequest(), local, loads); dec.Target != local {
			t.Fatalf("rr moved a request from %d to %d", local, dec.Target)
		}
	}
}

func TestFileLocalityTargetsOwner(t *testing.T) {
	fl := FileLocality{P: DefaultParams()}
	if fl.Name() != "File Locality" {
		t.Fatal("name")
	}
	loads := evenLoads(3)
	loads[0].CPULoad = 1000 // load is irrelevant to FL
	dec := fl.Choose(baseRequest(), 1, loads)
	if dec.Target != 0 {
		t.Fatalf("fl chose %d, want owner 0", dec.Target)
	}
}

func TestFileLocalityFallsBackWhenOwnerDead(t *testing.T) {
	fl := FileLocality{P: DefaultParams()}
	loads := evenLoads(3)
	loads[0].Available = false
	dec := fl.Choose(baseRequest(), 1, loads)
	if dec.Target != 1 {
		t.Fatalf("fl with dead owner chose %d", dec.Target)
	}
}

func TestFileLocalityHonorsRedirectLimit(t *testing.T) {
	fl := FileLocality{P: DefaultParams()}
	req := baseRequest()
	req.RedirectCount = 1
	dec := fl.Choose(req, 1, evenLoads(3))
	if dec.Target != 1 {
		t.Fatal("fl redirected an already-redirected request")
	}
}

func TestCPUOnlyPicksLowestCPULoad(t *testing.T) {
	c := CPUOnly{P: DefaultParams()}
	if c.Name() != "CPU Only" {
		t.Fatal("name")
	}
	loads := evenLoads(4)
	loads[0].CPULoad = 3
	loads[1].CPULoad = 2
	loads[2].CPULoad = 0.5
	loads[3].CPULoad = 1
	dec := c.Choose(baseRequest(), 1, loads)
	if dec.Target != 2 {
		t.Fatalf("cpu-only chose %d", dec.Target)
	}
}

func TestCPUOnlyPrefersLocalOnTie(t *testing.T) {
	c := CPUOnly{P: DefaultParams()}
	dec := c.Choose(baseRequest(), 2, evenLoads(4))
	if dec.Target != 2 {
		t.Fatalf("tie should stay local, chose %d", dec.Target)
	}
}

func TestCPUOnlySkipsDeadNodes(t *testing.T) {
	c := CPUOnly{P: DefaultParams()}
	loads := evenLoads(3)
	loads[0].Available = false
	loads[0].CPULoad = 0 // dead but tempting
	loads[1].CPULoad = 5
	loads[2].CPULoad = 4
	dec := c.Choose(baseRequest(), 1, loads)
	if dec.Target != 2 {
		t.Fatalf("chose %d", dec.Target)
	}
}

// TestBaselinesPredictNothing: round robin, file locality and CPU-only
// place without a cost model, so no decision of theirs is a prediction —
// CPU-only's lowest queue length included.
func TestBaselinesPredictNothing(t *testing.T) {
	loads := evenLoads(3)
	loads[1].CPULoad = 0.5
	for _, p := range []Policy{RoundRobin{}, FileLocality{P: DefaultParams()}, CPUOnly{P: DefaultParams()}} {
		for local := 0; local < 3; local++ {
			if d := p.Choose(baseRequest(), local, loads); d.Predicted() != -1 {
				t.Errorf("%s at node %d predicted %v (estimate %v)", p.Name(), local, d.Predicted(), d.Estimate)
			}
		}
	}
	if got := (Decision{Estimate: 0.25}).Predicted(); got != 0.25 {
		t.Errorf("a finite estimate > 0 is a prediction: got %v", got)
	}
	for _, est := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if got := (Decision{Estimate: est}).Predicted(); got != -1 {
			t.Errorf("estimate %v predicted %v, want -1", est, got)
		}
	}
}

func TestFacetTogglesZeroTheirTerms(t *testing.T) {
	req := baseRequest()
	loads := evenLoads(2)
	loads[1].CPULoad, loads[1].DiskLoad, loads[1].NetLoad = 2, 2, 2

	p := DefaultParams()
	p.UseCPUFacet = false
	if cb := NewSWEB(p).EstimateCost(req, 1, 1, loads); cb.CPU != 0 {
		t.Fatalf("cpu facet off but cost %v", cb.CPU)
	}
	p = DefaultParams()
	p.UseNetFacet = false
	if cb := NewSWEB(p).EstimateCost(req, 1, 1, loads); cb.Net != 0 {
		t.Fatalf("net facet off but cost %v", cb.Net)
	}
	p = DefaultParams()
	p.UseDiskFacet = false
	cbOff := NewSWEB(p).EstimateCost(baseRequest(), 0, 0, loads)
	loads[0].DiskLoad = 10
	cbOff2 := NewSWEB(p).EstimateCost(baseRequest(), 0, 0, loads)
	if cbOff.Data != cbOff2.Data {
		t.Fatal("disk facet off but disk load still matters")
	}
}

// Property: Choose never returns an unavailable or out-of-range target.
func TestChooseTargetAlwaysValidProperty(t *testing.T) {
	s := NewSWEB(DefaultParams())
	f := func(cpu, disk, net [5]uint8, avail [5]bool, owner, local uint8, size uint32) bool {
		loads := evenLoads(5)
		anyUp := false
		for i := range loads {
			loads[i].CPULoad = float64(cpu[i] % 50)
			loads[i].DiskLoad = float64(disk[i] % 50)
			loads[i].NetLoad = float64(net[i] % 50)
			loads[i].Available = avail[i]
			anyUp = anyUp || avail[i]
		}
		lcl := int(local % 5)
		loads[lcl].Available = true // the broker's own node is alive
		req := baseRequest()
		req.Owner = int(owner % 5)
		req.Size = int64(size%10_000_000) + 1
		req.DiskBytes = float64(req.Size)
		dec := s.Choose(req, lcl, loads)
		if dec.Target < 0 || dec.Target >= 5 {
			return false
		}
		return loads[dec.Target].Available
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the chosen target has the minimum estimate among candidates
// that beat the redirect-advantage margin.
func TestChooseIsMinCostProperty(t *testing.T) {
	s := NewSWEB(DefaultParams())
	f := func(cpu, disk, net [4]uint8, owner, local uint8) bool {
		loads := evenLoads(4)
		for i := range loads {
			loads[i].CPULoad = float64(cpu[i] % 20)
			loads[i].DiskLoad = float64(disk[i] % 20)
			loads[i].NetLoad = float64(net[i] % 20)
		}
		lcl := int(local % 4)
		req := baseRequest()
		req.Owner = int(owner % 4)
		dec := s.Choose(req, lcl, loads)
		best := math.Inf(1)
		for i := range loads {
			cb := s.EstimateCost(req, lcl, i, loads)
			if cb.Total < best {
				best = cb.Total
			}
		}
		chosen := s.EstimateCost(req, lcl, dec.Target, loads).Total
		if dec.Target == lcl {
			// Local is legal if nothing beats it by the required margin.
			localCost := chosen
			return best >= s.P.RedirectAdvantage*localCost || best == localCost
		}
		return math.Abs(chosen-best) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateHonorsPeerCacheHints(t *testing.T) {
	s := NewSWEB(DefaultParams())
	req := baseRequest() // owner 0
	req.CachedAt = []bool{false, false, true}
	loads := evenLoads(3)
	hinted := s.EstimateCost(req, 1, 2, loads)
	if hinted.Data != 0 {
		t.Fatalf("hinted peer data = %v", hinted.Data)
	}
	unhinted := s.EstimateCost(req, 1, 1, loads)
	if unhinted.Data == 0 {
		t.Fatal("unhinted node treated as cached")
	}
}

func TestChoosePrefersCachedPeerUnderMargin(t *testing.T) {
	p := DefaultParams()
	s := NewSWEB(p)
	req := baseRequest() // owner 0, large file
	req.CachedAt = []bool{false, false, true}
	loads := evenLoads(3)
	// The hinted peer skips ~0.33s of data time: a >30% predicted win.
	dec := s.Choose(req, 1, loads)
	if dec.Target != 2 {
		t.Fatalf("chose %d, want the memory-resident peer 2", dec.Target)
	}
}

func TestSWEBName(t *testing.T) {
	if NewSWEB(DefaultParams()).Name() != "SWEB" {
		t.Fatal("name")
	}
}

func TestChooseCandidatesPopulated(t *testing.T) {
	s := NewSWEB(DefaultParams())
	dec := s.Choose(baseRequest(), 1, evenLoads(3))
	if len(dec.Candidates) != 3 {
		t.Fatalf("candidates = %d", len(dec.Candidates))
	}
	for i, cb := range dec.Candidates {
		if cb.Node != i {
			t.Fatalf("candidate %d labeled %d", i, cb.Node)
		}
		if cb.Total <= 0 {
			t.Fatalf("candidate %d has non-positive total", i)
		}
	}
}

func TestPinnedSkipsCandidateEvaluation(t *testing.T) {
	s := NewSWEB(DefaultParams())
	req := baseRequest()
	req.PinnedLocal = true
	dec := s.Choose(req, 0, evenLoads(3))
	if dec.Candidates != nil {
		t.Fatal("pinned decision evaluated candidates")
	}
}
