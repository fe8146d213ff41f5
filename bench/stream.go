package main

import (
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"sort"
)

// doc is one document of a workload's corpus. The popularity/size
// structure is fixed by the workload definition so metrics do not move
// with the seed; the seed picks the bytes, the request order and which
// requests are conditional.
type doc struct {
	Path  string
	Size  int64
	Owner int
	CRC   uint32 // IEEE CRC32 of the body, filled by fillBody
}

// request is one logical client request: which document, which node the
// DNS rotation handed the client, and whether it revalidates (expects a
// 304) instead of fetching.
type request struct {
	Doc  int
	Node int
	Cond bool
}

// stream is a workload's infinite, randomly addressable request
// sequence: At(i) depends only on (seed, i), so C workers can each walk
// their own stride of it without sharing state.
type stream struct {
	Docs  []doc
	Nodes int
	seed  uint64
	cdf   []float64 // cumulative pick probabilities; nil means uniform
	cond  uint64    // one request in cond is conditional; 0 means none
	// offOwner makes every request arrive at the node that does not own
	// its document (two nodes only).
	offOwner bool
	fixed    []request // sim_meiko: the generated arrivals, cycled
}

// mix is splitmix64 over (seed, i): a stateless hash good enough to stand
// in for a PRNG stream.
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *stream) At(i int) request {
	if s.fixed != nil {
		return s.fixed[i%len(s.fixed)]
	}
	h := mix(s.seed, uint64(2*i))
	var d int
	if s.cdf == nil {
		d = int(h % uint64(len(s.Docs)))
	} else {
		u := float64(h>>11) / (1 << 53)
		d = sort.SearchFloat64s(s.cdf, u)
		if d >= len(s.Docs) {
			d = len(s.Docs) - 1
		}
	}
	r := request{Doc: d, Node: i % s.Nodes}
	if s.offOwner {
		if s.cdf == nil {
			// Keep the rotation, move the pick: uniform over the half of
			// the corpus the other node owns (owners alternate by index).
			r.Doc = d&^1 | (1 - r.Node)
		} else {
			// Keep the popularity, move the arrival.
			r.Node = 1 - s.Docs[d].Owner
		}
	}
	if s.cond > 0 {
		r.Cond = mix(s.seed, uint64(2*i+1))%s.cond == 0
	}
	return r
}

// nonOwnerShare is the fraction of the first n requests that arrive at a
// node other than the document's owner: what httpd.redirect_ratio must
// equal under policy fl.
func (s *stream) nonOwnerShare(n int) float64 {
	off := 0
	for i := 0; i < n; i++ {
		if r := s.At(i); s.Docs[r.Doc].Owner != r.Node {
			off++
		}
	}
	return ratio(float64(off), float64(n))
}

func uniformDocs(prefix string, count int, size int64, nodes int) []doc {
	docs := make([]doc, count)
	for i := range docs {
		docs[i] = doc{Path: fmt.Sprintf("/docs/%s%04d.dat", prefix, i), Size: size, Owner: i % nodes}
	}
	return docs
}

// mixedDocs builds redirect_serial's corpus: count sizes on a log-uniform
// ladder from minSize to maxSize (Table 3's non-uniform set), dealt to
// popularity ranks by bit reversal so the hot ranks sample the whole
// ladder instead of whatever a seeded shuffle would put first.
func mixedDocs(prefix string, count int, minSize, maxSize float64, nodes int) []doc {
	width := bits.Len(uint(count - 1))
	docs := make([]doc, count)
	for rank := range docs {
		step := int(bits.Reverse(uint(rank)) >> (bits.UintSize - width))
		size := minSize * math.Pow(maxSize/minSize, float64(step)/float64(count-1))
		docs[rank] = doc{
			Path:  fmt.Sprintf("/docs/%s%04d.dat", prefix, rank),
			Size:  int64(math.Round(size)),
			Owner: rank % nodes,
		}
	}
	return docs
}

// zipfCDF is P(rank <= k) for P(k) proportional to (1+k)^-s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += math.Pow(float64(1+k), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// fillBody writes the document's seeded content into buf[:d.Size] and
// returns its CRC32, the checksum the client later holds every response to.
func fillBody(buf []byte, seed uint64, index int) uint32 {
	x := mix(seed, uint64(index)<<32)
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		x = mix(x, uint64(i))
		buf[i], buf[i+1], buf[i+2], buf[i+3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		buf[i+4], buf[i+5], buf[i+6], buf[i+7] = byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56)
	}
	for ; i < len(buf); i++ {
		x = mix(x, uint64(i))
		buf[i] = byte(x)
	}
	return crc32.ChecksumIEEE(buf)
}

// liveDef is what distinguishes one live workload from another; every
// field is a property of the traffic or a swebd flag the README justifies.
type liveDef struct {
	name       string
	docs       func() []doc
	zipf       float64  // 0: uniform picks
	cond       uint64   // one request in cond revalidates; 0: none
	flags      []string // swebd flags beyond the defaults
	connClose  bool     // one connection per request
	offOwner   bool     // every request arrives at the non-owner
	openRate   float64  // req/s on a fixed schedule; 0: closed loop
	simRPS     int      // rate of the traced run's DES leg over the same corpus
	cacheBytes int64    // the node cache the flags configure, for the replay
}

var liveDefs = map[string]liveDef{
	wlHotSmall: {
		name:       wlHotSmall,
		docs:       func() []doc { return uniformDocs("h", 256, 1<<10, 2) },
		flags:      []string{"-policy", "sweb"},
		simRPS:     32,
		cacheBytes: 64 << 20,
	},
	wlLargeCold: {
		name:       wlLargeCold,
		docs:       func() []doc { return uniformDocs("l", 64, 3<<19, 2) },
		flags:      []string{"-policy", "sweb", "-cache-bytes", "16777216"},
		offOwner:   true,
		simRPS:     4,
		cacheBytes: 16 << 20,
	},
	wlRedirectSerial: {
		name:       wlRedirectSerial,
		docs:       func() []doc { return mixedDocs("r", 512, 100, 256<<10, 2) },
		zipf:       1.1,
		cond:       10,
		flags:      []string{"-policy", "fl", "-cache-bytes", "4194304"},
		connClose:  true,
		offOwner:   true,
		openRate:   400,
		simRPS:     16,
		cacheBytes: 4 << 20,
	},
}

func (d liveDef) stream(seed int64) *stream {
	s := &stream{Docs: d.docs(), Nodes: 2, seed: uint64(seed), cond: d.cond, offOwner: d.offOwner}
	if d.zipf > 0 {
		s.cdf = zipfCDF(len(s.Docs), d.zipf)
	}
	return s
}
