package loadd

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDecodeSample feeds arbitrary datagrams to the codec the UDP listener
// runs on every packet it receives. Arbitrary bytes must never panic; a
// datagram the decoder accepts must be a valid, finite sample whose
// encoding reproduces the bytes it was read from and decodes back to
// itself, incarnation and cache hints included.
//
//	go test ./internal/loadd -run '^$' -fuzz FuzzDecodeSample -fuzztime 30s
func FuzzDecodeSample(f *testing.F) {
	add := func(s Sample) []byte {
		var buf [MaxWireSize]byte
		n, err := EncodeSample(buf[:], s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[:n])
		return append([]byte(nil), buf[:n]...)
	}
	withHints := sample(2, 1, 1, 1, 5)
	withHints.CacheHints = []string{"/adl/full/scene0001.img", "/docs/hot.dat", "/x"}
	withHints.Incarnation = 0xfedcba9876543211
	add(sample(3, 1.5, 2.25, 0.125, 42.5))
	add(withHints)
	good := add(sample(0, 1, 1, 1, 0))
	// The corruptions the codec tests reject.
	f.Add(good[:WireSize-1])
	f.Add(append([]byte("XXXX"), good[4:]...))
	badVer := append([]byte(nil), good...)
	badVer[4], badVer[5] = 0xFF, 0xFF
	f.Add(badVer)
	neg := append([]byte(nil), good...)
	neg[8] |= 0x80
	f.Add(neg)
	inf := append([]byte(nil), good...)
	copy(inf[32:40], []byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 0}) // CPUOpsPerSec = +Inf
	f.Add(inf)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSample(data)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("decoded an invalid sample %+v: %v", s, err)
		}
		for _, v := range []float64{s.CPULoad, s.DiskLoad, s.NetLoad,
			s.CPUOpsPerSec, s.DiskBytesPerSec, s.NetBytesPerSec, s.SentAt} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("decoded a non-finite sample %+v", s)
			}
		}
		var buf [MaxWireSize]byte
		n, err := EncodeSample(buf[:], s)
		if err != nil {
			t.Fatalf("re-encoding accepted sample %+v: %v", s, err)
		}
		if n > len(data) || !bytes.Equal(buf[:n], data[:n]) {
			t.Fatalf("re-encoding differs from the datagram:\n got %x\nfrom %x", buf[:n], data)
		}
		back, err := DecodeSample(buf[:n])
		if err != nil || !samplesEqual(back, s) {
			t.Fatalf("round trip: %+v -> %+v (%v)", s, back, err)
		}
	})
}
