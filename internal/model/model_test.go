package model

import (
	"math"
	"strings"
	"testing"

	"sweb/internal/des"
)

func validSpec() Spec {
	s := MeikoNodeSpec("test")
	return s
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string // substring of error, "" for valid
	}{
		{"valid", func(s *Spec) {}, ""},
		{"zero cpu", func(s *Spec) { s.CPUOpsPerSec = 0 }, "CPUOpsPerSec"},
		{"negative ram", func(s *Spec) { s.RAMBytes = -1 }, "RAMBytes"},
		{"cache exceeds ram", func(s *Spec) { s.FileCacheBytes = s.RAMBytes + 1 }, "FileCacheBytes"},
		{"zero disk", func(s *Spec) { s.DiskBytesPerSec = 0 }, "DiskBytesPerSec"},
		{"zero nic", func(s *Spec) { s.NICBytesPerSec = 0 }, "NICBytesPerSec"},
		{"zero accept", func(s *Spec) { s.AcceptQueue = 0 }, "AcceptQueue"},
		{"swap below 1", func(s *Spec) { s.SwapPenalty = 0.5 }, "SwapPenalty"},
	}
	for _, c := range cases {
		s := validSpec()
		c.mut(&s)
		err := s.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}
}

func TestNewNodeRejectsBadSpec(t *testing.T) {
	s := validSpec()
	s.CPUOpsPerSec = -1
	if _, err := NewNode(des.New(), 0, s); err == nil {
		t.Fatal("expected error")
	}
}

func TestCalibratedSpecsAreValid(t *testing.T) {
	for _, s := range []Spec{MeikoNodeSpec("m"), NOWNodeSpec("n")} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	if MeikoNodeSpec("m").CPUOpsPerSec != 40e6 {
		t.Error("Meiko CPU should model the 40 MHz SuperSparc")
	}
	if NOWNodeSpec("n").RAMBytes != 16<<20 {
		t.Error("LX RAM should be 16 MB")
	}
}

func TestCPUWorkAccounting(t *testing.T) {
	sim := des.New()
	n, err := NewNode(sim, 0, validSpec())
	if err != nil {
		t.Fatal(err)
	}
	n.CPUWork(ActParse, 1000, func() {})
	n.CPUWork(ActParse, 500, func() {})
	n.CPUWork(ActSchedule, 200, func() {})
	sim.RunAll()
	acc := n.CPUByActivity()
	if acc[ActParse] != 1500 || acc[ActSchedule] != 200 {
		t.Fatalf("accounting = %v", acc)
	}
	// Returned map is a copy.
	acc[ActParse] = 0
	if n.CPUByActivity()[ActParse] != 1500 {
		t.Fatal("CPUByActivity leaked internal state")
	}
}

func TestPinBufferAndMemoryPressure(t *testing.T) {
	sim := des.New()
	spec := validSpec()
	free := spec.RAMBytes - spec.FileCacheBytes
	n, _ := NewNode(sim, 0, spec)
	if n.MemoryPressure() {
		t.Fatal("fresh node under pressure")
	}
	n.Pin(free)
	if n.MemoryPressure() {
		t.Fatal("exactly-full is not pressure")
	}
	n.Pin(1)
	if !n.MemoryPressure() {
		t.Fatal("over-full must be pressure")
	}
	n.Unpin(1)
	if n.MemoryPressure() {
		t.Fatal("pressure after release")
	}
	n.Unpin(free)
	if n.MemoryPressure() {
		t.Fatal("pressure after all released")
	}
}

// readFile is the simulator's read of a whole file at n: one counted page
// cache lookup; a hit costs a memory copy on the CPU, a miss a disk read
// whose bytes are then cached. done fires when the bytes are in memory.
func readFile(n *Node, path string, size int64, copyOpsPerByte float64, done func()) {
	if _, hit := n.Cache.Lookup(path, nil); hit {
		n.CPUWork(ActFulfill, copyOpsPerByte*float64(size), done)
		return
	}
	n.ReadDisk(float64(size), size, func() {
		n.Cache.Insert(path, size, struct{}{})
		done()
	})
}

func TestReadFileMissThenHit(t *testing.T) {
	sim := des.New()
	n, _ := NewNode(sim, 0, validSpec())
	var missDone, hitDone des.Time
	readFile(n, "/a", 5_000_000, 0.5, func() { missDone = sim.Now() })
	sim.RunAll()
	readFile(n, "/a", 5_000_000, 0.5, func() { hitDone = sim.Now() - missDone })
	sim.RunAll()
	if st := n.Cache.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("hits=%d misses=%d", st.Hits, st.Misses)
	}
	// Miss: 5 MB over 5 MB/s disk = 1s. Hit: CPU copy 2.5e6 ops / 40e6 ≈ 62ms.
	if got := missDone.ToSeconds(); math.Abs(got-1.0) > 0.01 {
		t.Fatalf("miss took %v", got)
	}
	if got := hitDone.ToSeconds(); got > 0.1 {
		t.Fatalf("hit took %v, want near-free copy", got)
	}
	if n.DiskReads != 1 {
		t.Fatalf("disk reads = %d", n.DiskReads)
	}
}

func TestReadFileSwapPenaltyUnderPressure(t *testing.T) {
	sim := des.New()
	spec := validSpec()
	n, _ := NewNode(sim, 0, spec)
	n.Pin(spec.RAMBytes) // force pressure
	defer n.Unpin(spec.RAMBytes)
	var done des.Time
	n.ReadDisk(5_000_000, 5_000_000, func() { done = sim.Now() })
	sim.RunAll()
	want := 1.0 * spec.SwapPenalty
	if got := done.ToSeconds(); math.Abs(got-want) > 0.01 {
		t.Fatalf("swapped read took %v, want %v", got, want)
	}
	if n.SwappedOps != 1 {
		t.Fatalf("SwappedOps = %d", n.SwappedOps)
	}
}

func TestFilesBiggerThanCacheAreNeverCached(t *testing.T) {
	sim := des.New()
	spec := validSpec()
	n, _ := NewNode(sim, 0, spec)
	big := spec.FileCacheBytes + 1
	readFile(n, "/huge", big, 0.5, func() {})
	sim.RunAll()
	readFile(n, "/huge", big, 0.5, func() {})
	sim.RunAll()
	if st := n.Cache.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("hits=%d misses=%d", st.Hits, st.Misses)
	}
}

func TestLoadVector(t *testing.T) {
	sim := des.New()
	n, _ := NewNode(sim, 0, validSpec())
	n.CPU.Submit(1e9, func() {})
	n.Disk.Submit(1e9, func() {})
	n.Disk.Submit(1e9, func() {})
	cpu, disk, nic := n.LoadVector()
	if cpu != 1 || disk != 2 || nic != 0 {
		t.Fatalf("load vector = %d,%d,%d", cpu, disk, nic)
	}
}
