package loadd

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Wire format for live-cluster UDP broadcasts, version 3: a fixed 72-byte
// header followed by the cache-hint digest.
//
//	offset  field
//	0       magic "SWLD"
//	4       version (uint16)
//	6       node id (uint16)
//	8..56   six float64 fields (cpu, disk, net loads; cpu, disk, net rates)
//	56      sentAt seconds (float64)
//	64      incarnation (uint64; new in version 3)
//	72      hint count (uint16), then per hint a uint16 length and its bytes
//
// All integers and float bit patterns are big-endian. A fixed binary layout
// keeps the daemon allocation-free on the receive path and rejects foreign
// traffic cheaply.

const (
	wireMagic   = "SWLD"
	wireVersion = 3
	// WireSize is the fixed header length; hint bytes follow it.
	WireSize = 72
	// MaxWireSize bounds a full datagram including the hint digest.
	MaxWireSize = WireSize + 2 + MaxCacheHints*(2+MaxHintLen)
)

// EncodedSize returns the exact datagram length EncodeSample will produce.
func EncodedSize(s Sample) int {
	n := WireSize + 2
	for _, h := range s.CacheHints {
		n += 2 + len(h)
	}
	return n
}

// EncodeSample serializes s into buf, which must be at least WireSize bytes,
// and returns the number of bytes written.
func EncodeSample(buf []byte, s Sample) (int, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if len(buf) < WireSize {
		return 0, fmt.Errorf("loadd: encode buffer too small: %d < %d", len(buf), WireSize)
	}
	if s.Node < 0 || s.Node > math.MaxUint16 {
		return 0, fmt.Errorf("loadd: node id %d does not fit wire format", s.Node)
	}
	copy(buf[0:4], wireMagic)
	binary.BigEndian.PutUint16(buf[4:6], wireVersion)
	binary.BigEndian.PutUint16(buf[6:8], uint16(s.Node))
	fields := [7]float64{s.CPULoad, s.DiskLoad, s.NetLoad, s.CPUOpsPerSec, s.DiskBytesPerSec, s.NetBytesPerSec, s.SentAt}
	for i, f := range fields {
		binary.BigEndian.PutUint64(buf[8+8*i:16+8*i], math.Float64bits(f))
	}
	binary.BigEndian.PutUint64(buf[64:72], s.Incarnation)
	// Hint digest: uint16 count, then per hint uint16 length + bytes.
	off := WireSize
	need := EncodedSize(s)
	if len(buf) < need {
		return 0, fmt.Errorf("loadd: encode buffer too small for hints: %d < %d", len(buf), need)
	}
	binary.BigEndian.PutUint16(buf[off:off+2], uint16(len(s.CacheHints)))
	off += 2
	for _, h := range s.CacheHints {
		binary.BigEndian.PutUint16(buf[off:off+2], uint16(len(h)))
		off += 2
		copy(buf[off:], h)
		off += len(h)
	}
	return off, nil
}

// DecodeSample parses a datagram produced by EncodeSample.
func DecodeSample(buf []byte) (Sample, error) {
	var s Sample
	if len(buf) < WireSize {
		return s, fmt.Errorf("loadd: datagram too short: %d", len(buf))
	}
	if string(buf[0:4]) != wireMagic {
		return s, fmt.Errorf("loadd: bad magic %q", buf[0:4])
	}
	if v := binary.BigEndian.Uint16(buf[4:6]); v != wireVersion {
		return s, fmt.Errorf("loadd: unsupported version %d", v)
	}
	s.Node = int(binary.BigEndian.Uint16(buf[6:8]))
	var fields [7]float64
	for i := range fields {
		fields[i] = math.Float64frombits(binary.BigEndian.Uint64(buf[8+8*i : 16+8*i]))
	}
	s.CPULoad, s.DiskLoad, s.NetLoad = fields[0], fields[1], fields[2]
	s.CPUOpsPerSec, s.DiskBytesPerSec, s.NetBytesPerSec = fields[3], fields[4], fields[5]
	s.SentAt = fields[6]
	s.Incarnation = binary.BigEndian.Uint64(buf[64:72])
	// Hint digest.
	off := WireSize
	if len(buf) < off+2 {
		return s, fmt.Errorf("loadd: datagram truncated before hint count")
	}
	count := int(binary.BigEndian.Uint16(buf[off : off+2]))
	off += 2
	if count > MaxCacheHints {
		return s, fmt.Errorf("loadd: %d hints exceeds %d", count, MaxCacheHints)
	}
	for i := 0; i < count; i++ {
		if len(buf) < off+2 {
			return s, fmt.Errorf("loadd: datagram truncated in hint %d", i)
		}
		l := int(binary.BigEndian.Uint16(buf[off : off+2]))
		off += 2
		if l == 0 || l > MaxHintLen || len(buf) < off+l {
			return s, fmt.Errorf("loadd: malformed hint %d", i)
		}
		s.CacheHints = append(s.CacheHints, string(buf[off:off+l]))
		off += l
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}
