package loadd

import (
	"encoding/binary"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func sample(node int, cpu, disk, net float64, sentAt float64) Sample {
	return Sample{
		Node: node, CPULoad: cpu, DiskLoad: disk, NetLoad: net,
		CPUOpsPerSec: 40e6, DiskBytesPerSec: 5e6, NetBytesPerSec: 4.5e6,
		SentAt: sentAt,
	}
}

func TestSampleValidate(t *testing.T) {
	if err := sample(0, 1, 1, 1, 0).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Sample{
		{Node: -1, CPUOpsPerSec: 1, DiskBytesPerSec: 1, NetBytesPerSec: 1},
		sample(0, -1, 0, 0, 0),
		sample(0, 0, -1, 0, 0),
		sample(0, 0, 0, -1, 0),
		{Node: 0, CPUOpsPerSec: 0, DiskBytesPerSec: 1, NetBytesPerSec: 1},
		{Node: 0, CPUOpsPerSec: 1, DiskBytesPerSec: 0, NetBytesPerSec: 1},
		{Node: 0, CPUOpsPerSec: 1, DiskBytesPerSec: 1, NetBytesPerSec: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid sample accepted: %+v", i, s)
		}
	}
}

func TestTableUpdateAndSnapshot(t *testing.T) {
	tb := NewTable(0, 8, 0.3)
	if err := tb.Update(sample(1, 2, 3, 4, 1), 1); err != nil {
		t.Fatal(err)
	}
	loads := tb.Snapshot(2, 2)
	if !loads[1].Available {
		t.Fatal("fresh sample unavailable")
	}
	if loads[1].CPULoad != 2 || loads[1].DiskLoad != 3 || loads[1].NetLoad != 4 {
		t.Fatalf("loads = %+v", loads[1])
	}
	if loads[0].Available {
		t.Fatal("node without a sample should be unavailable")
	}
}

func TestTableRejectsInvalidSamples(t *testing.T) {
	tb := NewTable(0, 8, 0.3)
	if err := tb.Update(Sample{Node: 1}, 0); err == nil {
		t.Fatal("invalid sample accepted")
	}
	if available(tb, 1, 0) {
		t.Fatal("table poisoned by invalid sample")
	}
}

func TestTableStalenessTimeout(t *testing.T) {
	tb := NewTable(0, 8, 0.3)
	_ = tb.Update(sample(1, 1, 1, 1, 0), 0)
	if !available(tb, 1, 7.9) {
		t.Fatal("node timed out too early")
	}
	if available(tb, 1, 8.1) {
		t.Fatal("silent node not marked unavailable")
	}
	if loads := tb.Snapshot(2, 9); loads[1].Available {
		t.Fatal("stale node available in snapshot")
	}
	// A new broadcast revives it (joining the pool again).
	_ = tb.Update(sample(1, 1, 1, 1, 9), 9)
	if !available(tb, 1, 9.5) {
		t.Fatal("rejoined node unavailable")
	}
}

func TestTableOutOfOrderSamplesIgnored(t *testing.T) {
	tb := NewTable(0, 8, 0.3)
	_ = tb.Update(sample(1, 5, 0, 0, 10), 10)
	_ = tb.Update(sample(1, 99, 0, 0, 4), 10.1) // older SentAt
	if got := tb.Snapshot(2, 10.2)[1].CPULoad; got != 5 {
		t.Fatalf("stale datagram overwrote table: cpu=%v", got)
	}
}

// TestTableRestartIsANewIncarnation: a restarted sender's clock starts
// over. Its first sample carries an older SentAt than the last one heard
// from its previous run, and must still be accepted; within the new run,
// reordered datagrams are dropped as before.
func TestTableRestartIsANewIncarnation(t *testing.T) {
	tb := NewTable(0, 8, 0.3)
	old := sample(1, 5, 0, 0, 3600)
	old.Incarnation = 7
	if joined, err := tb.Receive(old, 100); err != nil || !joined {
		t.Fatalf("first contact: joined=%v err=%v", joined, err)
	}
	restarted := sample(1, 1, 0, 0, 0.01)
	restarted.Incarnation = 9
	if joined, err := tb.Receive(restarted, 101); err != nil || !joined {
		t.Fatalf("restart: joined=%v err=%v", joined, err)
	}
	if got, _ := tb.Advertised(1); got.Incarnation != 9 || got.SentAt != 0.01 {
		t.Fatalf("restarted sample not recorded: %+v", got)
	}
	if !available(tb, 1, 101.5) {
		t.Fatal("restarted peer unavailable")
	}
	reordered := sample(1, 99, 0, 0, 0.005)
	reordered.Incarnation = 9
	if joined, err := tb.Receive(reordered, 101.6); err != nil || joined {
		t.Fatalf("reordered: joined=%v err=%v", joined, err)
	}
	if got, _ := tb.Advertised(1); got.CPULoad != 1 {
		t.Fatalf("reordered datagram of one incarnation overwrote the table: %+v", got)
	}
}

// TestTableUnknownIncarnationNeverRestarts: incarnation 0 (the simulator,
// literals) keeps the plain newest-SentAt rule against any incarnation.
func TestTableUnknownIncarnationNeverRestarts(t *testing.T) {
	for _, c := range []struct{ had, got uint64 }{{0, 0}, {0, 5}, {5, 0}} {
		tb := NewTable(0, 8, 0.3)
		a := sample(1, 5, 0, 0, 10)
		a.Incarnation = c.had
		_ = tb.Update(a, 10)
		b := sample(1, 99, 0, 0, 4)
		b.Incarnation = c.got
		if joined, err := tb.Receive(b, 10.1); err != nil || joined {
			t.Fatalf("%v: joined=%v err=%v", c, joined, err)
		}
		if got, _ := tb.Advertised(1); got.CPULoad != 5 {
			t.Fatalf("%v: older sample accepted: %+v", c, got)
		}
	}
}

// TestTableReceiveJoins: a sample joins its sender on first contact and
// after silence past the timeout; a steady stream does not.
func TestTableReceiveJoins(t *testing.T) {
	tb := NewTable(0, 8, 0.3)
	tb.MarkFailure(1) // an entry without a sample is not a member yet
	for _, c := range []struct {
		sentAt, now float64
		want        bool
	}{
		{0, 0, true},      // first contact
		{2.5, 2.5, false}, // steady gossip
		{5, 10.5, false},  // 8 s since the last one: not yet stale
		{20, 19, true},    // 8.5 s of silence
	} {
		joined, err := tb.Receive(sample(1, 0, 0, 0, c.sentAt), c.now)
		if err != nil || joined != c.want {
			t.Fatalf("sample at %v heard at %v: joined=%v err=%v, want %v", c.sentAt, c.now, joined, err, c.want)
		}
	}
}

func TestBumpInflatesAllFacets(t *testing.T) {
	tb := NewTable(0, 8, 0.3)
	_ = tb.Update(sample(1, 1, 2, 3, 0), 0)
	tb.Bump(1)
	loads := tb.Snapshot(2, 1)
	// bump = 0.3: load + 0.3*(1+load)
	if math.Abs(loads[1].CPULoad-(1+0.3*2)) > 1e-9 {
		t.Fatalf("cpu after bump = %v", loads[1].CPULoad)
	}
	if math.Abs(loads[1].DiskLoad-(2+0.3*3)) > 1e-9 {
		t.Fatalf("disk after bump = %v", loads[1].DiskLoad)
	}
	if math.Abs(loads[1].NetLoad-(3+0.3*4)) > 1e-9 {
		t.Fatalf("net after bump = %v", loads[1].NetLoad)
	}
}

func TestBumpsAccumulateAndResetOnUpdate(t *testing.T) {
	tb := NewTable(0, 8, 0.3)
	_ = tb.Update(sample(1, 0, 0, 0, 0), 0)
	tb.Bump(1)
	tb.Bump(1)
	loads := tb.Snapshot(2, 1)
	if math.Abs(loads[1].CPULoad-0.6) > 1e-9 {
		t.Fatalf("two bumps = %v", loads[1].CPULoad)
	}
	// Fresh broadcast clears the conservative inflation.
	_ = tb.Update(sample(1, 0, 0, 0, 2), 2)
	if got := tb.Snapshot(2, 2.5)[1].CPULoad; got != 0 {
		t.Fatalf("bump survived a fresh sample: %v", got)
	}
}

func TestBumpUnknownNodeIsNoop(t *testing.T) {
	tb := NewTable(0, 8, 0.3)
	tb.Bump(7) // must not panic or create an entry
	if len(tb.Known()) != 0 {
		t.Fatal("bump created a phantom entry")
	}
}

func TestForget(t *testing.T) {
	tb := NewTable(0, 8, 0.3)
	_ = tb.Update(sample(1, 1, 1, 1, 0), 0)
	tb.Forget(1)
	if available(tb, 1, 0.1) {
		t.Fatal("forgotten node still available")
	}
	if len(tb.Known()) != 0 {
		t.Fatal("forgotten node still known")
	}
}

func TestKnown(t *testing.T) {
	tb := NewTable(0, 8, 0.3)
	_ = tb.Update(sample(1, 0, 0, 0, 0), 0)
	_ = tb.Update(sample(3, 0, 0, 0, 0), 0)
	known := tb.Known()
	if len(known) != 2 {
		t.Fatalf("known = %v", known)
	}
}

func TestNewTablePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewTable(0, 0, 0.3) },
		func() { NewTable(0, 8, -1) },
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

func TestTableConcurrentAccess(t *testing.T) {
	tb := NewTable(0, 8, 0.3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = tb.Update(sample(g%4, float64(i), 0, 0, float64(i)), float64(i))
				tb.Bump(g % 4)
				tb.Snapshot(4, float64(i))
				available(tb, g%4, float64(i))
			}
		}()
	}
	wg.Wait()
}

func samplesEqual(a, b Sample) bool {
	if a.Node != b.Node || a.CPULoad != b.CPULoad || a.DiskLoad != b.DiskLoad ||
		a.NetLoad != b.NetLoad || a.CPUOpsPerSec != b.CPUOpsPerSec ||
		a.DiskBytesPerSec != b.DiskBytesPerSec || a.NetBytesPerSec != b.NetBytesPerSec ||
		a.SentAt != b.SentAt || a.Incarnation != b.Incarnation ||
		len(a.CacheHints) != len(b.CacheHints) {
		return false
	}
	for i := range a.CacheHints {
		if a.CacheHints[i] != b.CacheHints[i] {
			return false
		}
	}
	return true
}

func TestWireRoundTrip(t *testing.T) {
	s := sample(3, 1.5, 2.25, 0.125, 42.5)
	s.Incarnation = 0xfedcba9876543211
	var buf [MaxWireSize]byte
	n, err := EncodeSample(buf[:], s)
	if err != nil || n != EncodedSize(s) {
		t.Fatalf("encode: n=%d err=%v", n, err)
	}
	got, err := DecodeSample(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if !samplesEqual(got, s) {
		t.Fatalf("round trip: %+v != %+v", got, s)
	}
}

func TestWireRoundTripWithHints(t *testing.T) {
	s := sample(2, 1, 1, 1, 5)
	s.CacheHints = []string{"/adl/full/scene0001.img", "/docs/hot.dat", "/x"}
	var buf [MaxWireSize]byte
	n, err := EncodeSample(buf[:], s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSample(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if !samplesEqual(got, s) {
		t.Fatalf("round trip with hints: %+v != %+v", got, s)
	}
}

func TestWireRejectsOversizedHints(t *testing.T) {
	s := sample(0, 0, 0, 0, 0)
	for i := 0; i <= MaxCacheHints; i++ {
		s.CacheHints = append(s.CacheHints, "/f")
	}
	var buf [2 * MaxWireSize]byte
	if _, err := EncodeSample(buf[:], s); err == nil {
		t.Fatal("oversized hint list encoded")
	}
}

func TestWireTruncatedHintsRejected(t *testing.T) {
	s := sample(1, 1, 1, 1, 0)
	s.CacheHints = []string{"/hot.dat"}
	var buf [MaxWireSize]byte
	n, _ := EncodeSample(buf[:], s)
	for _, cut := range []int{n - 1, WireSize + 1, WireSize + 3} {
		if _, err := DecodeSample(buf[:cut]); err == nil {
			t.Errorf("truncated datagram (len %d) decoded", cut)
		}
	}
}

func TestWireEncodeErrors(t *testing.T) {
	var small [10]byte
	if _, err := EncodeSample(small[:], sample(0, 0, 0, 0, 0)); err == nil {
		t.Fatal("short buffer accepted")
	}
	var exact [WireSize]byte // no room for the hint count
	if _, err := EncodeSample(exact[:], sample(0, 0, 0, 0, 0)); err == nil {
		t.Fatal("header-only buffer accepted")
	}
	var buf [MaxWireSize]byte
	if _, err := EncodeSample(buf[:], sample(1<<17, 0, 0, 0, 0)); err == nil {
		t.Fatal("oversized node id accepted")
	}
	if _, err := EncodeSample(buf[:], sample(0, -1, 0, 0, 0)); err == nil {
		t.Fatal("invalid sample encoded")
	}
}

func TestWireDecodeErrors(t *testing.T) {
	var buf [MaxWireSize]byte
	n, _ := EncodeSample(buf[:], sample(0, 1, 1, 1, 0))
	good := buf[:n]

	short := good[:WireSize-1]
	if _, err := DecodeSample(short); err == nil {
		t.Fatal("short datagram accepted")
	}
	bad := append([]byte(nil), good...)
	copy(bad[0:4], "XXXX")
	if _, err := DecodeSample(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	badVer := append([]byte(nil), good...)
	badVer[4], badVer[5] = 0xFF, 0xFF
	if _, err := DecodeSample(badVer); err == nil {
		t.Fatal("bad version accepted")
	}
	// Corrupt payload producing an invalid sample (negative load).
	neg := append([]byte(nil), good...)
	neg[8] |= 0x80 // flip CPULoad sign bit
	if _, err := DecodeSample(neg); err == nil {
		t.Fatal("negative load accepted")
	}
}

// Property: encode/decode round-trips any valid sample.
func TestWireRoundTripProperty(t *testing.T) {
	f := func(node uint16, cpu, disk, net uint16, sentAt int32, inc uint64) bool {
		s := Sample{
			Node:         int(node),
			CPULoad:      float64(cpu) / 16,
			DiskLoad:     float64(disk) / 16,
			NetLoad:      float64(net) / 16,
			CPUOpsPerSec: 40e6, DiskBytesPerSec: 5e6, NetBytesPerSec: 4.5e6,
			SentAt:      float64(sentAt),
			Incarnation: inc,
		}
		var buf [MaxWireSize]byte
		n, err := EncodeSample(buf[:], s)
		if err != nil {
			return false
		}
		got, err := DecodeSample(buf[:n])
		return err == nil && samplesEqual(got, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCachedAt(t *testing.T) {
	tb := NewTable(0, 8, 0.3)
	s := sample(1, 0, 0, 0, 0)
	s.CacheHints = []string{"/hot.dat", "/warm.dat"}
	_ = tb.Update(s, 0)
	if !tb.CachedAt(1, "/hot.dat", 1) {
		t.Fatal("hinted path not found")
	}
	if tb.CachedAt(1, "/cold.dat", 1) {
		t.Fatal("phantom hint")
	}
	if tb.CachedAt(2, "/hot.dat", 1) {
		t.Fatal("unknown node hinted")
	}
	// Stale digests are ignored.
	if tb.CachedAt(1, "/hot.dat", 100) {
		t.Fatal("stale digest honored")
	}
}

// TestNonFiniteSamplesRejected: NaN and ±Inf pass every < 0 and <= 0
// test, and a +Inf rate prices every request at that peer as free. Neither
// the codec nor the table may accept one.
func TestNonFiniteSamplesRejected(t *testing.T) {
	fields := []func(*Sample) *float64{
		func(s *Sample) *float64 { return &s.CPULoad },
		func(s *Sample) *float64 { return &s.DiskLoad },
		func(s *Sample) *float64 { return &s.NetLoad },
		func(s *Sample) *float64 { return &s.CPUOpsPerSec },
		func(s *Sample) *float64 { return &s.DiskBytesPerSec },
		func(s *Sample) *float64 { return &s.NetBytesPerSec },
		func(s *Sample) *float64 { return &s.SentAt },
	}
	for i, field := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			s := sample(1, 1, 1, 1, 1)
			*field(&s) = v
			if err := s.Validate(); err == nil {
				t.Errorf("field %d = %v: Validate accepted", i, v)
			}
			tb := NewTable(0, 8, 0.3)
			if err := tb.Update(s, 1); err == nil || available(tb, 1, 1) {
				t.Errorf("field %d = %v: table accepted", i, v)
			}
			// The same value patched into a valid datagram's bytes.
			var buf [MaxWireSize]byte
			n, err := EncodeSample(buf[:], sample(1, 1, 1, 1, 1))
			if err != nil {
				t.Fatal(err)
			}
			binary.BigEndian.PutUint64(buf[8+8*i:], math.Float64bits(v))
			if got, err := DecodeSample(buf[:n]); err == nil {
				t.Errorf("field %d = %v: decoded %+v", i, v, got)
			}
		}
	}
}

func TestSampleValidateHints(t *testing.T) {
	s := sample(0, 0, 0, 0, 0)
	s.CacheHints = []string{""}
	if err := s.Validate(); err == nil {
		t.Fatal("empty hint accepted")
	}
	s.CacheHints = []string{string(make([]byte, MaxHintLen+1))}
	if err := s.Validate(); err == nil {
		t.Fatal("overlong hint accepted")
	}
}

func TestMarkFailureMakesPeerUnavailable(t *testing.T) {
	tb := NewTable(0, 8, 0.3)
	_ = tb.Update(sample(1, 1, 1, 1, 0), 0)
	if !available(tb, 1, 1) {
		t.Fatal("fresh peer should be available")
	}
	// Below the limit the peer stays usable.
	for i := 1; i < DefaultFailureLimit; i++ {
		if got := tb.MarkFailure(1); got != i {
			t.Fatalf("failure count = %d want %d", got, i)
		}
		if !available(tb, 1, 1) {
			t.Fatalf("peer unavailable after only %d failures", i)
		}
	}
	tb.MarkFailure(1)
	if available(tb, 1, 1) {
		t.Fatal("peer still available at the failure limit")
	}
	if loads := tb.Snapshot(2, 1); loads[1].Available {
		t.Fatal("snapshot still advertises the failing peer")
	}
}

func TestMarkSuccessRecoversPeer(t *testing.T) {
	tb := NewTable(0, 8, 0.3)
	_ = tb.Update(sample(1, 1, 1, 1, 0), 0)
	for i := 0; i < DefaultFailureLimit; i++ {
		tb.MarkFailure(1)
	}
	if available(tb, 1, 1) {
		t.Fatal("peer should be down")
	}
	tb.MarkSuccess(1)
	if !available(tb, 1, 1) {
		t.Fatal("MarkSuccess did not recover the peer")
	}
	if tb.Failures(1) != 0 {
		t.Fatalf("failures = %d after success", tb.Failures(1))
	}
}

func TestBroadcastRecoversFailingPeer(t *testing.T) {
	tb := NewTable(0, 8, 0.3)
	_ = tb.Update(sample(1, 1, 1, 1, 0), 0)
	for i := 0; i < DefaultFailureLimit; i++ {
		tb.MarkFailure(1)
	}
	// A fresh broadcast proves the node is back.
	_ = tb.Update(sample(1, 1, 1, 1, 1), 1)
	if !available(tb, 1, 2) {
		t.Fatal("fresh broadcast did not recover the peer")
	}
	if loads := tb.Snapshot(2, 2); !loads[1].Available {
		t.Fatal("snapshot did not recover the peer")
	}
}

func TestSetFailureLimit(t *testing.T) {
	tb := NewTable(0, 8, 0.3)
	tb.SetFailureLimit(1)
	_ = tb.Update(sample(1, 1, 1, 1, 0), 0)
	tb.MarkFailure(1)
	if available(tb, 1, 1) {
		t.Fatal("limit 1 not honored")
	}
	tb.SetFailureLimit(0) // restores the default
	if !available(tb, 1, 1) {
		t.Fatal("default limit not restored")
	}
}

func TestMarkFailureUnknownPeerTracked(t *testing.T) {
	// Failures can precede the first broadcast (we dialed a configured
	// peer that never gossiped); the streak must survive until Update.
	tb := NewTable(0, 8, 0.3)
	tb.MarkFailure(7)
	tb.MarkFailure(7)
	if got := tb.Failures(7); got != 2 {
		t.Fatalf("failures = %d", got)
	}
	if available(tb, 7, 0) {
		t.Fatal("never-heard peer reported available")
	}
}

func TestHealthSnapshot(t *testing.T) {
	tb := NewTable(0, 8, 0.3)
	_ = tb.Update(sample(2, 0.5, 0.25, 0.125, 0), 0) // fresh at now=1
	_ = tb.Update(sample(1, 1, 1, 1, 0), 0)          // will look stale
	tb.Bump(2)
	tb.MarkFailure(1)
	tb.MarkFailure(3) // failures before any broadcast

	h := tb.Health(20) // node 1 and 2 are 20s old, past the 8s timeout
	if len(h) != 3 || h[0].Node != 1 || h[1].Node != 2 || h[2].Node != 3 {
		t.Fatalf("health rows = %+v", h)
	}
	if h[0].Available || h[1].Available {
		t.Fatal("stale peers reported available")
	}

	h = tb.Health(1)
	if !h[1].Available || h[1].Bumps != 1 || h[1].AgeSeconds != 1 {
		t.Fatalf("node 2 row = %+v", h[1])
	}
	if h[1].CPULoad != 0.5 || h[1].DiskLoad != 0.25 || h[1].NetLoad != 0.125 {
		t.Fatalf("node 2 loads = %+v", h[1])
	}
	if h[0].Failures != 1 || !h[0].Available {
		// One failure is under DefaultFailureLimit; still available.
		t.Fatalf("node 1 row = %+v", h[0])
	}
	if h[2].HaveSample || h[2].Available || h[2].AgeSeconds != -1 || h[2].Failures != 1 {
		t.Fatalf("node 3 (no sample) row = %+v", h[2])
	}

	tb.MarkFailure(1)
	tb.MarkFailure(1)
	if h = tb.Health(1); h[0].Available {
		t.Fatal("failure streak at limit still reported available")
	}
}

// available reads node's row of the broker's snapshot as of now.
func available(tb *Table, node int, now float64) bool {
	return tb.Snapshot(node+1, now)[node].Available
}
