package netsim

import (
	"math"
	"testing"

	"sweb/internal/des"
)

func newLinks(sim *des.Simulator, n int, rate float64) []*des.PSResource {
	links := make([]*des.PSResource, n)
	for i := range links {
		links[i] = des.NewPSResource(sim, "link", rate)
	}
	return links
}

func TestFatTreeInternalTransferTiming(t *testing.T) {
	sim := des.New()
	ft := NewFatTree(sim, newLinks(sim, 2, 1e6))
	var done des.Time
	ft.InternalTransfer(0, 1, 1_000_000, func() { done = sim.Now() })
	sim.RunAll()
	// 1 MB * 1.1 penalty over 1 MB/s + latency.
	want := 1.1 + ft.ControlLatency().ToSeconds()
	if got := done.ToSeconds(); math.Abs(got-want) > 0.01 {
		t.Fatalf("transfer took %v, want %v", got, want)
	}
}

func TestFatTreeSameNodeTransferIsFree(t *testing.T) {
	sim := des.New()
	ft := NewFatTree(sim, newLinks(sim, 2, 1e6))
	var done des.Time
	ft.InternalTransfer(1, 1, 100<<20, func() { done = sim.Now() })
	sim.RunAll()
	if done.ToSeconds() > 0.001 {
		t.Fatalf("same-node transfer took %v", done)
	}
}

func TestFatTreeSenderLinkContention(t *testing.T) {
	sim := des.New()
	ft := NewFatTree(sim, newLinks(sim, 3, 1e6))
	var d1, d2 des.Time
	// Two transfers out of node 0 share its link; destinations differ.
	ft.InternalTransfer(0, 1, 500_000, func() { d1 = sim.Now() })
	ft.InternalTransfer(0, 2, 500_000, func() { d2 = sim.Now() })
	sim.RunAll()
	for _, d := range []des.Time{d1, d2} {
		if got := d.ToSeconds(); math.Abs(got-1.1) > 0.05 {
			t.Fatalf("contended transfer took %v, want ~1.1s", got)
		}
	}
}

func TestFatTreeDifferentSendersDoNotContend(t *testing.T) {
	sim := des.New()
	ft := NewFatTree(sim, newLinks(sim, 2, 1e6))
	var d1, d2 des.Time
	ft.InternalTransfer(0, 1, 500_000, func() { d1 = sim.Now() })
	ft.InternalTransfer(1, 0, 500_000, func() { d2 = sim.Now() })
	sim.RunAll()
	// Full bisection: each uses its own link, ~0.55s each.
	for _, d := range []des.Time{d1, d2} {
		if got := d.ToSeconds(); math.Abs(got-0.55) > 0.05 {
			t.Fatalf("transfer took %v, want ~0.55s", got)
		}
	}
}

func TestFatTreeClientTransferSentBeforeDelivered(t *testing.T) {
	sim := des.New()
	ft := NewFatTree(sim, newLinks(sim, 1, 1e6))
	link := ClientLink{Name: "c", LatencyOneWay: 10 * des.Millisecond, BytesPerSec: 2e6}
	var sent, delivered des.Time
	ft.ClientTransfer(0, link, 1_000_000, func() { sent = sim.Now() }, func() { delivered = sim.Now() })
	sim.RunAll()
	if sent == 0 || delivered == 0 || sent >= delivered {
		t.Fatalf("sent=%v delivered=%v", sent, delivered)
	}
	// sent at ~1s (link), delivered ~ +latency +0.5s drain.
	if got := sent.ToSeconds(); math.Abs(got-1.0) > 0.02 {
		t.Fatalf("sent at %v", got)
	}
	if got := (delivered - sent).ToSeconds(); math.Abs(got-0.51) > 0.02 {
		t.Fatalf("drain took %v", got)
	}
}

// TestTransfersChainedFromCallbacks starts each transfer from the
// previous one's sent (or done) callback, so every transfer reuses the
// record its predecessor just gave back: each must still run its own
// callbacks once, at its own times.
func TestTransfersChainedFromCallbacks(t *testing.T) {
	link := ClientLink{Name: "c", LatencyOneWay: 10 * des.Millisecond, BytesPerSec: 1e6}
	for _, tc := range []struct {
		name string
		net  func(*des.Simulator) Network
		// hop is one chunk's time from submission to sent, uncontended.
		hop des.Time
	}{
		{"fat-tree", func(sim *des.Simulator) Network { return NewFatTree(sim, newLinks(sim, 2, 1e6)) }, des.Second / 10},
		{"ethernet", func(sim *des.Simulator) Network { return NewEthernetBus(sim, newLinks(sim, 2, 1e6), 1e6, 0) }, des.Second / 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := des.New()
			nw := tc.net(sim)
			const chunks = 5
			var sent, delivered []des.Time
			internal := 0
			var send func(i int)
			send = func(i int) {
				nw.ClientTransfer(0, link, 100_000,
					func() {
						sent = append(sent, sim.Now())
						nw.InternalTransfer(0, 1, 10, func() { internal++ })
						if i+1 < chunks {
							send(i + 1)
						}
					},
					func() { delivered = append(delivered, sim.Now()) })
			}
			send(0)
			sim.RunAll()
			if len(sent) != chunks || len(delivered) != chunks || internal != chunks {
				t.Fatalf("sent %d, delivered %d, internal %d of %d", len(sent), len(delivered), internal, chunks)
			}
			for i := range sent {
				// Each chunk shares the sender's link with at most one
				// 10-byte internal transfer, so it leaves about hop after
				// the previous one and drains 0.1 s plus latency later.
				if got := (sent[i] - des.Time(i)*tc.hop).ToSeconds(); math.Abs(got-tc.hop.ToSeconds()) > 0.001 {
					t.Fatalf("chunk %d sent at %v", i, sent[i])
				}
				if got := (delivered[i] - sent[i]).ToSeconds(); math.Abs(got-0.11) > 1e-6 {
					t.Fatalf("chunk %d drained in %v s", i, got)
				}
			}
		})
	}
}

func TestFatTreeNilCallbacksAllowed(t *testing.T) {
	sim := des.New()
	ft := NewFatTree(sim, newLinks(sim, 1, 1e6))
	ft.ClientTransfer(0, CampusClient(), 1000, nil, nil)
	sim.RunAll() // must not panic
}

func TestEthernetBusPenaltyOnInternalTraffic(t *testing.T) {
	sim := des.New()
	eb := NewEthernetBus(sim, newLinks(sim, 2, 10e6), 1e6, 0)
	var done des.Time
	eb.InternalTransfer(0, 1, 1_000_000, func() { done = sim.Now() })
	sim.RunAll()
	// NIC stage 0.1s + bus 1.6s (penalty) + latency.
	want := 0.1 + 1.6 + eb.ControlLatency().ToSeconds()
	if got := done.ToSeconds(); math.Abs(got-want) > 0.05 {
		t.Fatalf("NFS over Ethernet took %v, want ~%v", got, want)
	}
	if eb.RemotePenalty() != 1.6 {
		t.Fatalf("penalty = %v", eb.RemotePenalty())
	}
}

func TestEthernetBusIsSharedAcrossSenders(t *testing.T) {
	sim := des.New()
	eb := NewEthernetBus(sim, newLinks(sim, 2, 100e6), 1e6, 0)
	var d1, d2 des.Time
	link := ClientLink{Name: "c", LatencyOneWay: 0, BytesPerSec: 1e9}
	eb.ClientTransfer(0, link, 500_000, nil, func() { d1 = sim.Now() })
	eb.ClientTransfer(1, link, 500_000, nil, func() { d2 = sim.Now() })
	sim.RunAll()
	// Both cross the single 1 MB/s bus: ~1s each, not ~0.5s.
	for _, d := range []des.Time{d1, d2} {
		if got := d.ToSeconds(); got < 0.9 {
			t.Fatalf("bus sharing not modeled: transfer took %v", got)
		}
	}
}

func TestEthernetBackgroundLoadSlowsBus(t *testing.T) {
	timeFor := func(background float64) float64 {
		sim := des.New()
		eb := NewEthernetBus(sim, newLinks(sim, 1, 100e6), 1e6, background)
		var done des.Time
		eb.ClientTransfer(0, ClientLink{BytesPerSec: 1e9}, 1_000_000, nil, func() { done = sim.Now() })
		sim.RunAll()
		return done.ToSeconds()
	}
	quiet, busy := timeFor(0), timeFor(1)
	if busy < 1.8*quiet {
		t.Fatalf("background traffic has no effect: quiet=%v busy=%v", quiet, busy)
	}
}

func TestEthernetBusSameNodeFree(t *testing.T) {
	sim := des.New()
	eb := NewEthernetBus(sim, newLinks(sim, 2, 1e6), 1e6, 0)
	var done des.Time
	eb.InternalTransfer(0, 0, 100<<20, func() { done = sim.Now() })
	sim.RunAll()
	if done.ToSeconds() > 0.001 {
		t.Fatalf("same-node transfer crossed the bus: %v", done)
	}
	if eb.BusLoad() != 0 {
		t.Fatalf("bus load = %d", eb.BusLoad())
	}
}

func TestClientLinkPresets(t *testing.T) {
	campus, east := CampusClient(), CrossCountryClient()
	if campus.LatencyOneWay >= east.LatencyOneWay {
		t.Fatal("cross-country latency must exceed campus latency")
	}
	if campus.BytesPerSec <= east.BytesPerSec {
		t.Fatal("campus bandwidth must exceed cross-country bandwidth")
	}
}

func TestMeikoPenaltyLessThanEthernetPenalty(t *testing.T) {
	sim := des.New()
	ft := NewFatTree(sim, newLinks(sim, 1, 1e6))
	eb := NewEthernetBus(sim, newLinks(sim, 1, 1e6), 1e6, 0)
	// Paper: ~10% penalty on the Meiko, 50-70% on Ethernet.
	if ft.RemotePenalty() >= eb.RemotePenalty() {
		t.Fatal("fat tree must have lower remote penalty than the shared bus")
	}
	if ft.RemotePenalty() < 1.05 || ft.RemotePenalty() > 1.2 {
		t.Fatalf("meiko penalty %v outside the paper's ~10%%", ft.RemotePenalty())
	}
	if eb.RemotePenalty() < 1.5 || eb.RemotePenalty() > 1.7 {
		t.Fatalf("ethernet penalty %v outside the paper's 50-70%%", eb.RemotePenalty())
	}
}

func TestConstructorsPanicOnEmpty(t *testing.T) {
	sim := des.New()
	for _, fn := range []func(){
		func() { NewFatTree(sim, nil) },
		func() { NewEthernetBus(sim, nil, 1e6, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
