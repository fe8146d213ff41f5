// Package model provides the simulated node hardware that SWEB runs on in
// the discrete-event substrate: a time-shared CPU with per-activity
// accounting, a disk channel with a thrashing penalty, the page cache (the
// source of the paper's observed superlinear speedup; its policy is
// internal/cache's Index, the one the live server runs), and the per-node
// specification types used to describe the Meiko CS-2 and the
// SparcStation NOW testbeds.
package model

import (
	"fmt"

	"sweb/internal/cache"
	"sweb/internal/des"
)

// Activity labels CPU work for the Section 4.3 overhead accounting
// ("4.4% of CPU cycles are used for parsing ... less than 0.01% ... for
// collecting load information and making scheduling decisions").
type Activity string

const (
	// ActParse is HTTP command parsing / request preprocessing.
	ActParse Activity = "parse"
	// ActSchedule is broker cost estimation and redirect generation.
	ActSchedule Activity = "schedule"
	// ActLoadd is periodic load collection and broadcasting.
	ActLoadd Activity = "loadd"
	// ActFulfill is request fulfillment: fork, read, packetize, send.
	ActFulfill Activity = "fulfill"
	// ActCGI is dynamic (CGI) computation.
	ActCGI Activity = "cgi"
)

// Spec describes one node's hardware. All rates are "work units per second":
// ops/s for the CPU and bytes/s for the disk and NIC.
type Spec struct {
	Name string
	// CPUOpsPerSec is the scalar unit speed; a 40 MHz SuperSparc is modeled
	// as 40e6 ops/s so that the paper's 70 ms preprocessing corresponds to
	// 2.8e6 ops.
	CPUOpsPerSec float64
	// RAMBytes is physical memory; FileCacheBytes of it act as page cache.
	RAMBytes       int64
	FileCacheBytes int64
	// DiskBytesPerSec is b1, the local disk channel bandwidth (5 MB/s on
	// the Meiko's dedicated drives).
	DiskBytesPerSec float64
	// NICBytesPerSec is the node's attachment bandwidth to the
	// interconnect (the effective socket throughput, not the hardware peak:
	// the paper measured only 5-15% of the Meiko's 40 MB/s through TCP).
	NICBytesPerSec float64
	// AcceptQueue is the listen backlog; arrivals beyond it are dropped
	// ("the system starts to drop requests if the server reaches its rps
	// limit").
	AcceptQueue int
	// SwapPenalty multiplies disk work while in-flight buffer bytes exceed
	// free RAM, modeling paging ("one-node server spends more time in
	// swapping between memory and the disk").
	SwapPenalty float64
}

// Validate reports a descriptive error for an unusable spec.
func (s *Spec) Validate() error {
	switch {
	case s.CPUOpsPerSec <= 0:
		return fmt.Errorf("model: node %q: CPUOpsPerSec must be positive", s.Name)
	case s.RAMBytes <= 0:
		return fmt.Errorf("model: node %q: RAMBytes must be positive", s.Name)
	case s.FileCacheBytes < 0 || s.FileCacheBytes > s.RAMBytes:
		return fmt.Errorf("model: node %q: FileCacheBytes out of range", s.Name)
	case s.DiskBytesPerSec <= 0:
		return fmt.Errorf("model: node %q: DiskBytesPerSec must be positive", s.Name)
	case s.NICBytesPerSec <= 0:
		return fmt.Errorf("model: node %q: NICBytesPerSec must be positive", s.Name)
	case s.AcceptQueue <= 0:
		return fmt.Errorf("model: node %q: AcceptQueue must be positive", s.Name)
	case s.SwapPenalty < 1:
		return fmt.Errorf("model: node %q: SwapPenalty must be >= 1", s.Name)
	}
	return nil
}

// MeikoNodeSpec returns the calibrated Meiko CS-2 node: 40 MHz SuperSparc,
// 32 MB RAM, dedicated 1 GB drive at b1 = 5 MB/s.
func MeikoNodeSpec(name string) Spec {
	return Spec{
		Name:            name,
		CPUOpsPerSec:    40e6,
		RAMBytes:        32 << 20,
		FileCacheBytes:  20 << 20,
		DiskBytesPerSec: 5e6,
		NICBytesPerSec:  5e6,
		AcceptQueue:     240,
		SwapPenalty:     1.8,
	}
}

// NOWNodeSpec returns the calibrated SparcStation LX node: 16 MB RAM,
// 525 MB local drive, 10 Mb/s shared Ethernet attachment.
func NOWNodeSpec(name string) Spec {
	return Spec{
		Name:            name,
		CPUOpsPerSec:    36e6,
		RAMBytes:        16 << 20,
		FileCacheBytes:  8 << 20,
		DiskBytesPerSec: 3.5e6,
		NICBytesPerSec:  1.25e6, // 10 Mb/s line rate; bus contention is modeled separately
		AcceptQueue:     128,
		SwapPenalty:     2.2,
	}
}

// Node is the simulated hardware instance: CPU and disk are
// processor-sharing resources, plus the page cache and memory pressure
// tracking.
type Node struct {
	Spec Spec
	ID   int

	sim  *des.Simulator
	CPU  *des.PSResource
	Disk *des.PSResource
	// NIC is the node's attachment link into the interconnect; the
	// interconnect may impose additional shared stages (Ethernet bus).
	NIC *des.PSResource

	// Cache is the node's page cache: residency and LRU order only, since
	// the simulator moves no bytes.
	Cache *cache.Index[struct{}]

	cpuByActivity map[Activity]float64 // ops submitted per activity
	inflightBytes int64                // buffer memory currently pinned by active transfers

	// Counters.
	DiskReads  int64
	DiskBytes  int64
	SwappedOps int64 // disk jobs that paid the swap penalty
}

// NewNode builds a node's resources on the given simulator.
func NewNode(sim *des.Simulator, id int, spec Spec) (*Node, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := &Node{
		Spec:          spec,
		ID:            id,
		sim:           sim,
		CPU:           des.NewPSResource(sim, spec.Name+"/cpu", spec.CPUOpsPerSec),
		Disk:          des.NewPSResource(sim, spec.Name+"/disk", spec.DiskBytesPerSec),
		NIC:           des.NewPSResource(sim, spec.Name+"/nic", spec.NICBytesPerSec),
		Cache:         cache.NewIndex[struct{}](spec.FileCacheBytes, nil),
		cpuByActivity: make(map[Activity]float64),
	}
	return n, nil
}

// CPUWork submits ops to the CPU under an accounting activity.
func (n *Node) CPUWork(act Activity, ops float64, done func()) {
	n.cpuByActivity[act] += ops
	n.CPU.Submit(ops, done)
}

// CPUByActivity returns a copy of the per-activity ops accounting.
func (n *Node) CPUByActivity() map[Activity]float64 {
	out := make(map[Activity]float64, len(n.cpuByActivity))
	for k, v := range n.cpuByActivity {
		out[k] = v
	}
	return out
}

// Pin reserves transfer buffer memory for an in-flight request until the
// matching Unpin.
func (n *Node) Pin(bytes int64) { n.inflightBytes += bytes }

// Unpin returns memory that Pin reserved.
func (n *Node) Unpin(bytes int64) { n.inflightBytes -= bytes }

// MemoryPressure reports whether pinned transfer buffers exceed the RAM not
// reserved for the page cache, i.e. the node is paging.
func (n *Node) MemoryPressure() bool {
	return n.inflightBytes > n.Spec.RAMBytes-n.Spec.FileCacheBytes
}

// ReadDisk is the node's one disk-read charge: it counts a read of bytes
// and submits work to the disk, inflated by the swap penalty while the
// node is paging. then runs once the disk has done the work.
func (n *Node) ReadDisk(work float64, bytes int64, then func()) {
	if n.MemoryPressure() {
		work *= n.Spec.SwapPenalty
		n.SwappedOps++
	}
	n.DiskReads++
	n.DiskBytes += bytes
	n.Disk.Submit(work, then)
}

// LoadVector samples the node's instantaneous resource loads, in the units
// loadd broadcasts: runnable-job counts per resource.
func (n *Node) LoadVector() (cpu, disk, nic int) {
	return n.CPU.Load(), n.Disk.Load(), n.NIC.Load()
}
