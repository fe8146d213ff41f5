// Package netsim models the networks in the SWEB paper's two testbeds: the
// Meiko CS-2's fat-tree interconnect (full bisection bandwidth, so traffic
// contends only on each node's own attachment link) and the NOW's single
// shared 10 Mb/s Ethernet bus (every internal NFS transfer and every
// response to a client crosses one contended segment that also carries
// unrelated campus traffic). It also models the Internet path to clients,
// which the paper treats as equal for all server nodes and therefore
// excludes from the scheduling decision, but which still contributes t_net
// to the measured response time.
//
// Both interconnects attach to the per-node NIC resources owned by
// model.Node, so the load daemon can observe "network load" per node the
// same way it observes CPU and disk load.
package netsim

import (
	"sweb/internal/des"
)

// ClientLink describes the Internet path between the server site and one
// client population.
type ClientLink struct {
	Name string
	// LatencyOneWay is the one-way propagation delay.
	LatencyOneWay des.Time
	// BytesPerSec is the end-to-end bottleneck bandwidth of the client's
	// connection, applied as a dedicated drain stage per transfer.
	BytesPerSec float64
}

// CampusClient models the paper's primary clients "situated within UCSB":
// low latency, bandwidth high enough that the server side is the bottleneck.
func CampusClient() ClientLink {
	return ClientLink{Name: "ucsb-campus", LatencyOneWay: 2 * des.Millisecond, BytesPerSec: 2e6}
}

// CrossCountryClient models the Rutgers (New Jersey) clients: "poor
// bandwidth and long latency over the connection from the east coast".
func CrossCountryClient() ClientLink {
	return ClientLink{Name: "rutgers", LatencyOneWay: 35 * des.Millisecond, BytesPerSec: 150e3}
}

// Network is the interconnect seen by the simulated SWEB nodes.
type Network interface {
	// InternalTransfer moves bytes of NFS payload from node src to node
	// dst, invoking done when the last byte arrives.
	InternalTransfer(src, dst int, bytes int64, done func())
	// ClientTransfer sends bytes from node src toward a client over link.
	// sent fires when the bytes have left the server site (the handler
	// process can exit); delivered fires when the client has received
	// them. Either callback may be nil.
	ClientTransfer(src int, link ClientLink, bytes int64, sent, delivered func())
	// ControlLatency is the one-way delay for a small control datagram
	// (loadd broadcasts, redirect notes) inside the server site.
	ControlLatency() des.Time
	// RemotePenalty is the multiplicative slowdown of a remote file fetch
	// versus a local one, as the broker's oracle is configured with
	// (~1.1 on the Meiko, 1.5-1.7 on Ethernet).
	RemotePenalty() float64
	// Name identifies the interconnect for reports.
	Name() string
}

// after is a tiny helper: fire fn (if non-nil) after d.
func after(sim *des.Simulator, d des.Time, fn func()) {
	if fn == nil {
		return
	}
	sim.After(d, fn)
}

// wire runs transfers over one network's resources. A transfer passes
// through one or two processor-sharing stages (a link, then a shared bus),
// then a propagation delay. Its record is recycled once its last stage
// fires, and each record's fire is bound once, so a transfer allocates
// nothing once the network has as many records as it has transfers in
// flight.
type wire struct {
	sim  *des.Simulator
	free []*transfer
}

// stage is one resource a transfer occupies and the work it costs there.
type stage struct {
	res  *des.PSResource
	work float64
}

// transfer is one in-flight transfer. An internal one calls delivered
// (the caller's done) latency after its last stage; a client one calls
// sent as its bytes leave the server site and delivered once they have
// crossed link.
type transfer struct {
	stages  [2]stage // the second is unused when its res is nil
	at      int      // the next stage to enter
	client  bool
	link    ClientLink
	bytes   int64
	latency des.Time

	sent, delivered func()
	w               *wire
	fire            func() // step, bound once per record
}

// start runs t on a recycled record, or a new one.
func (w *wire) start(t transfer) {
	var r *transfer
	if n := len(w.free); n > 0 {
		r = w.free[n-1]
		w.free = w.free[:n-1]
	} else {
		r = &transfer{}
		r.fire = r.step
	}
	t.w, t.fire = w, r.fire
	*r = t
	r.step()
}

// step enters the transfer's next stage or, past the last, recycles the
// record and runs the callbacks it held.
func (t *transfer) step() {
	if t.at < len(t.stages) && t.stages[t.at].res != nil {
		st := t.stages[t.at]
		t.at++
		st.res.Submit(st.work, t.fire)
		return
	}
	done := *t
	w := t.w
	*t = transfer{fire: t.fire}
	w.free = append(w.free, t)
	if !done.client {
		after(w.sim, done.latency, done.delivered)
		return
	}
	if done.sent != nil {
		done.sent()
	}
	drain := des.Seconds(float64(done.bytes) / done.link.BytesPerSec)
	after(w.sim, done.link.LatencyOneWay+drain, done.delivered)
}

// FatTree models the Meiko CS-2 interconnect. The hardware peak is 40 MB/s,
// but SWEB deliberately runs on Solaris TCP sockets and "were only able to
// achieve approximately 5-15% of the peak communication performance", so the
// effective attachment rate is the nodes' NIC rate (~5 MB/s). The fat tree
// has full bisection bandwidth, so a transfer contends only on the sender's
// attachment link.
type FatTree struct {
	wire
	links   []*des.PSResource // per-node attachment links (the nodes' NICs)
	latency des.Time
	penalty float64
}

// NewFatTree builds the Meiko interconnect over the given per-node
// attachment links (normally each model.Node's NIC resource).
func NewFatTree(sim *des.Simulator, links []*des.PSResource) *FatTree {
	if len(links) == 0 {
		panic("netsim: fat tree needs at least one link")
	}
	return &FatTree{wire: wire{sim: sim}, links: links, latency: 500 * des.Microsecond, penalty: 1.1}
}

// Name implements Network.
func (ft *FatTree) Name() string { return "meiko-fat-tree" }

// RemotePenalty implements Network.
func (ft *FatTree) RemotePenalty() float64 { return ft.penalty }

// ControlLatency implements Network.
func (ft *FatTree) ControlLatency() des.Time { return ft.latency }

// InternalTransfer implements Network. The NFS payload pays the sender's
// link plus the protocol penalty that makes b2 < b1.
func (ft *FatTree) InternalTransfer(src, dst int, bytes int64, done func()) {
	if src == dst {
		after(ft.sim, 0, done)
		return
	}
	ft.start(transfer{
		stages:    [2]stage{{ft.links[src], float64(bytes) * ft.penalty}},
		latency:   ft.latency,
		delivered: done,
	})
}

// ClientTransfer implements Network. The response leaves through the node's
// attachment link, then drains over the client's dedicated Internet path.
func (ft *FatTree) ClientTransfer(src int, link ClientLink, bytes int64, sent, delivered func()) {
	ft.start(transfer{
		stages: [2]stage{{ft.links[src], float64(bytes)}},
		client: true, link: link, bytes: bytes,
		sent: sent, delivered: delivered,
	})
}

// EthernetBus models the NOW's shared 10 Mb/s Ethernet segment. Traffic
// first crosses the sending node's NIC, then the single bus, which
// additionally carries elastic background traffic from "other UCSB
// machines". Remote NFS over this bus costs 50-70% more than a local read.
type EthernetBus struct {
	wire
	nics    []*des.PSResource
	bus     *des.PSResource
	latency des.Time
	penalty float64
}

// NewEthernetBus builds the shared segment over the nodes' NICs. busRate is
// the achievable payload bandwidth in bytes/second (10 Mb/s line rate is
// 1.25 MB/s; CSMA/CD and protocol overhead bring the usable default to
// ~1.1 MB/s) and background is the phantom competing load in equivalent
// always-on flows.
func NewEthernetBus(sim *des.Simulator, nics []*des.PSResource, busRate, background float64) *EthernetBus {
	if len(nics) == 0 {
		panic("netsim: ethernet needs at least one NIC")
	}
	bus := des.NewPSResource(sim, "ethernet/bus", busRate)
	bus.SetBackground(background)
	return &EthernetBus{wire: wire{sim: sim}, nics: nics, bus: bus, latency: 1 * des.Millisecond, penalty: 1.6}
}

// Name implements Network.
func (eb *EthernetBus) Name() string { return "now-ethernet" }

// RemotePenalty implements Network.
func (eb *EthernetBus) RemotePenalty() float64 { return eb.penalty }

// ControlLatency implements Network.
func (eb *EthernetBus) ControlLatency() des.Time { return eb.latency }

// BusLoad returns the instantaneous number of real transfers on the bus.
func (eb *EthernetBus) BusLoad() int { return eb.bus.Load() }

// BusUtilization returns the busy fraction of the bus since t0.
func (eb *EthernetBus) BusUtilization(t0 des.Time) float64 { return eb.bus.Utilization(t0) }

// InternalTransfer implements Network.
func (eb *EthernetBus) InternalTransfer(src, dst int, bytes int64, done func()) {
	if src == dst {
		after(eb.sim, 0, done)
		return
	}
	// Remote NFS pays the RPC/retransmission penalty as extra bus
	// occupancy, reproducing the measured 50-70% cost increase.
	eb.start(transfer{
		stages:    [2]stage{{eb.nics[src], float64(bytes)}, {eb.bus, float64(bytes) * eb.penalty}},
		latency:   eb.latency,
		delivered: done,
	})
}

// ClientTransfer implements Network.
func (eb *EthernetBus) ClientTransfer(src int, link ClientLink, bytes int64, sent, delivered func()) {
	eb.start(transfer{
		stages: [2]stage{{eb.nics[src], float64(bytes)}, {eb.bus, float64(bytes)}},
		client: true, link: link, bytes: bytes,
		sent: sent, delivered: delivered,
	})
}

var (
	_ Network = (*FatTree)(nil)
	_ Network = (*EthernetBus)(nil)
)
