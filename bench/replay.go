package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"time"

	"sweb/internal/cache"
	"sweb/internal/core"
	"sweb/internal/des"
	"sweb/internal/flight"
	"sweb/internal/heat"
	"sweb/internal/httpmsg"
	"sweb/internal/loadd"
	"sweb/internal/metrics"
	"sweb/internal/oracle"
	"sweb/internal/storage"
)

// The replay prices each mechanism in isolation: the first requests of
// the workload's own stream are driven through each package's public
// functions in-process, one batch per layer, reporting ns/op and
// allocations/op. The end-to-end numbers say whether a change mattered;
// these say where to look.

const (
	replayRequests = 20000
	// replayBudget caps one batch. A 1.5 MiB body makes some operations a
	// thousand times dearer than on 1 KiB documents; the batch then covers
	// fewer requests rather than more seconds.
	replayBudget = 120 * time.Millisecond
)

type replayer struct {
	docs []doc
	reqs []request
	body []byte // shared backing for every document body
	log  *spanLog
	out  map[string]float64
}

// timing is one batch's outcome: mean nanoseconds and heap allocations
// per call, and how long the whole batch ran.
type timing struct {
	ns, allocs float64
	elapsed    time.Duration
}

// batch runs op over the first limit replayed requests, stopping early if
// the budget runs out.
func (rp *replayer) batch(name string, limit int, op func(i int, r request, d *doc)) timing {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	n := 0
	for n < limit {
		r := rp.reqs[n]
		op(n, r, &rp.docs[r.Doc])
		n++
		if n&15 == 0 && time.Since(t0) > replayBudget {
			break
		}
	}
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	rp.log.add(0, 0, "replay."+name, t0, t1)
	return timing{
		ns:      float64(t1.Sub(t0)) / float64(n),
		allocs:  float64(m1.Mallocs-m0.Mallocs) / float64(n),
		elapsed: t1.Sub(t0),
	}
}

// each is batch over every replayed request, filed under name_ns and,
// when allocations matter for the layer, name_allocs.
func (rp *replayer) each(name string, allocs bool, op func(i int, r request, d *doc)) timing {
	t := rp.batch(name, len(rp.reqs), op)
	rp.out[name+"_ns"] = t.ns
	if allocs {
		rp.out[name+"_allocs"] = t.allocs
	}
	return t
}

// sink counts bytes and implements only io.Writer, like a socket behind
// the server's bufio.Writer.
type sink struct{ n int64 }

func (s *sink) Write(p []byte) (int, error) { s.n += int64(len(p)); return len(p), nil }

// twoPart reads a header then a body without allocating per reset.
type twoPart struct {
	head, body []byte
}

func (t *twoPart) Read(p []byte) (int, error) {
	if len(t.head) > 0 {
		n := copy(p, t.head)
		t.head = t.head[n:]
		return n, nil
	}
	if len(t.body) == 0 {
		return 0, io.EOF
	}
	n := copy(p, t.body)
	t.body = t.body[n:]
	return n, nil
}

func loadRows(n int) []core.NodeLoad {
	rows := make([]core.NodeLoad, n)
	for i := range rows {
		rows[i] = core.NodeLoad{
			Available: true, CPULoad: float64(i % 3), DiskLoad: float64(i % 2), NetLoad: 1,
			CPUOpsPerSec: 40e6, DiskBytesPerSec: 5e6, NetBytesPerSec: 5e6,
		}
	}
	return rows
}

func replayLayers(out map[string]float64, str *stream, cacheBytes int64, log *spanLog) {
	rp := &replayer{docs: str.Docs, log: log, out: out}
	var maxSize int64
	for _, d := range str.Docs {
		maxSize = max(maxSize, d.Size)
	}
	// Real bytes, not a fresh allocation: untouched pages all map to the
	// kernel's one zero page and would make every copy cache-resident.
	rp.body = make([]byte, maxSize)
	fillBody(rp.body, 1, 0)
	rp.reqs = make([]request, replayRequests)
	for i := range rp.reqs {
		rp.reqs[i] = str.At(i)
	}
	rp.httpmsg()
	rp.cache(cacheBytes)
	rp.scheduler(str.Nodes)
	rp.telemetry()
	rp.des()
}

func (rp *replayer) httpmsg() {
	// Requests as the generator's client writes them.
	var wire bytes.Buffer
	for _, r := range rp.reqs {
		fmt.Fprintf(&wire, "GET %s HTTP/1.1\r\nHost: 127.0.0.1:8080\r\n", rp.docs[r.Doc].Path)
		if r.Cond {
			wire.WriteString("If-Modified-Since: " + docMTimeHTTP + "\r\n")
		}
		wire.WriteString("\r\n")
	}
	br := bufio.NewReader(bytes.NewReader(wire.Bytes()))
	rp.each("httpmsg.read_request", true, func(int, request, *doc) {
		if _, err := httpmsg.ReadRequest(br); err != nil {
			panic(err)
		}
	})

	// The header set streamResponse builds for a 200.
	snk := &sink{}
	bw := bufio.NewWriter(snk)
	rp.each("httpmsg.write_header", true, func(_ int, _ request, d *doc) {
		h := httpmsg.Header{}
		h.Set("Content-Type", httpmsg.ContentTypeFor(d.Path))
		h.Set("Content-Length", strconv.FormatInt(d.Size, 10))
		h.Set("Last-Modified", httpmsg.FormatHTTPDate(docMTime))
		h.Set("Connection", "keep-alive")
		if err := httpmsg.WriteProtoResponseHeader(bw, "HTTP/1.1", httpmsg.StatusOK, h); err != nil {
			panic(err)
		}
		_ = bw.Flush()
	})

	// What the relay path parses: a peer's full response, body included.
	heads := make([][]byte, len(rp.docs))
	for i, d := range rp.docs {
		heads[i] = []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\nLast-Modified: %s\r\nConnection: keep-alive\r\n\r\n", d.Size, docMTimeHTTP))
	}
	src := &twoPart{}
	rbr := bufio.NewReader(src)
	rp.each("httpmsg.read_response", false, func(_ int, r request, d *doc) {
		src.head, src.body = heads[r.Doc], rp.body[:d.Size]
		rbr.Reset(src)
		if _, err := httpmsg.ReadResponse(rbr, 0); err != nil {
			panic(err)
		}
	})

	var moved int64
	body := bytes.NewReader(nil)
	t := rp.batch("httpmsg.copy_body", len(rp.reqs), func(_ int, _ request, d *doc) {
		body.Reset(rp.body[:d.Size])
		n, err := httpmsg.CopyBodyN(bw, body, d.Size)
		if err != nil {
			panic(err)
		}
		_ = bw.Flush()
		moved += n
	})
	rp.out["httpmsg.copy_body_mbps"] = ratio(float64(moved)/1e6, t.elapsed.Seconds())

	// Chunked coding written and read back.
	moved = 0
	var chunked bytes.Buffer
	cbw := bufio.NewWriter(&chunked)
	cbr := bufio.NewReader(&chunked)
	t = rp.batch("httpmsg.chunked", len(rp.reqs), func(_ int, _ request, d *doc) {
		chunked.Reset()
		cbw.Reset(&chunked)
		body.Reset(rp.body[:d.Size])
		cw := httpmsg.NewChunkedWriter(cbw)
		if _, err := httpmsg.CopyBody(cw, body); err != nil {
			panic(err)
		}
		_ = cw.Close()
		_ = cbw.Flush()
		cbr.Reset(&chunked)
		n, err := io.Copy(snk, httpmsg.NewChunkedReader(cbr))
		if err != nil || n != d.Size {
			panic(fmt.Sprintf("chunked round trip: %d of %d bytes, %v", n, d.Size, err))
		}
		moved += n
	})
	rp.out["httpmsg.chunked_mbps"] = ratio(float64(moved)/1e6, t.elapsed.Seconds())
}

func (rp *replayer) cache(capacity int64) {
	always := func(cache.Entry) bool { return true }
	c := cache.New(capacity)
	// Miss -> fill -> insert -> evict at the workload's capacity, hits
	// where the stream repeats itself.
	rp.each("cache.fetch_fill", false, func(_ int, _ request, d *doc) {
		_, err := c.Fetch(d.Path, always, func() (cache.Entry, error) {
			return cache.Entry{Path: d.Path, Body: rp.body[:d.Size], ModTime: docMTime}, nil
		})
		if err != nil {
			panic(err)
		}
	})
	rp.each("cache.lookup", true, func(_ int, _ request, d *doc) { c.Lookup(d.Path, always) })
}

func (rp *replayer) scheduler(nodes int) {
	store := storage.NewStore(nodes)
	for _, d := range rp.docs {
		store.MustAdd(storage.File{Path: d.Path, Size: d.Size, Owner: d.Owner})
	}
	rp.each("storage.lookup", false, func(_ int, _ request, d *doc) { store.Lookup(d.Path) })

	orc := oracle.New(oracle.DefaultDemand())
	rp.each("oracle.characterize", false, func(_ int, _ request, d *doc) { orc.Characterize(d.Path) })

	// Choose on the workload's request features, against the live
	// cluster's 2-row load table and the Meiko's 6-row one.
	dem := oracle.DefaultDemand()
	sweb := core.NewSWEB(core.DefaultParams())
	coreReq := func(i int, r request, d *doc, n int) core.Request {
		return core.Request{
			Path: d.Path, Size: d.Size, Owner: d.Owner % n,
			Ops: dem.Ops(d.Size), DiskBytes: dem.DiskBytes(d.Size),
			Arrived: r.Node % n, CachedLocal: i%2 == 0,
		}
	}
	two, six := loadRows(2), loadRows(6)
	rp.each("core.choose", true, func(i int, r request, d *doc) { sweb.Choose(coreReq(i, r, d, 2), r.Node%2, two) })
	rp.each("core.choose6", true, func(i int, r request, d *doc) { sweb.Choose(coreReq(i, r, d, 6), r.Node%6, six) })
	rp.each("core.rank_sources", false, func(i int, r request, d *doc) {
		q := coreReq(i, r, d, 2)
		core.RankSources(q, q.Arrived, q.Arrived, two)
	})

	table := loadd.NewTable(0, 8, core.DefaultParams().Delta)
	for n := 0; n < nodes; n++ {
		_ = table.Update(loadd.Sample{Node: n, CPULoad: 1, CPUOpsPerSec: 40e6, DiskBytesPerSec: 5e6, NetBytesPerSec: 5e6}, 0)
	}
	rp.each("loadd.snapshot", false, func(int, request, *doc) { table.Snapshot(nodes, 1) })

	var wire [loadd.MaxWireSize]byte
	smp := loadd.Sample{Node: 1, CPULoad: 2, DiskLoad: 1, NetLoad: 3, CPUOpsPerSec: 40e6, DiskBytesPerSec: 5e6, NetBytesPerSec: 5e6, SentAt: 12.5}
	rp.each("loadd.codec", false, func(int, request, *doc) {
		n, err := loadd.EncodeSample(wire[:], smp)
		if err != nil {
			panic(err)
		}
		if _, err := loadd.DecodeSample(wire[:n]); err != nil {
			panic(err)
		}
	})
}

func (rp *replayer) telemetry() {
	reg := metrics.NewRegistry()
	hist := reg.Histogram("sweb_response_seconds", "service time", nil, nil)
	rp.each("metrics.observe", false, func(i int, _ request, _ *doc) { hist.Observe(float64(i%1000) * 1e-5) })
	// The per-event lookup ROADMAP calls out: label map built, registry
	// searched, counter bumped, for every lifecycle event.
	kinds := []string{"connected", "parsed", "analyzed", "fetch-local", "sent", "redirected"}
	rp.each("metrics.labelled_inc", true, func(i int, _ request, _ *doc) {
		reg.Counter("sweb_events_total", "request lifecycle events by trace kind",
			metrics.Labels{"event": kinds[i%len(kinds)]}).Inc()
	})
	// One exposition of a registry shaped like a node's hot families.
	for _, p := range []string{"parse", "analyze", "redirect", "fetch_local", "fetch_nfs", "redirect_hop"} {
		reg.Histogram("sweb_phase_seconds", "time spent per lifecycle phase", metrics.Labels{"phase": p}, nil).Observe(0.001)
	}
	snk := &sink{}
	t := rp.batch("metrics.write_text", 200, func(int, request, *doc) { _ = reg.WriteText(snk) })
	rp.out["metrics.write_text_us"] = t.ns / 1e3

	sk := heat.New(heat.Config{})
	rp.each("heat.observe", true, func(_ int, r request, d *doc) {
		sk.Observe(heat.Observation{Path: d.Path, Owner: d.Owner, Bytes: d.Size, Relay: d.Owner != r.Node, Seconds: 0.001})
	})
	fr := flight.New(flight.Config{})
	rp.each("flight.add", true, func(i int, r request, d *doc) {
		fr.Add(flight.Record{
			AtSeconds: float64(i) * 1e-3, Node: r.Node, ConnID: int64(i), Path: d.Path, Status: 200, Bytes: d.Size,
			Policy: "SWEB", Target: r.Node, CacheHit: true, PredictedSeconds: 0.001,
			ParseSeconds: 1e-5, AnalyzeSeconds: 1e-5, TTFBSeconds: 1e-4, TotalSeconds: 2e-4,
		})
	})
}

func (rp *replayer) des() {
	// A heap kept about a thousand events deep: schedule one, fire one.
	sim := des.New()
	fired := 0
	fn := func() { fired++ }
	for i := 0; i < 1000; i++ {
		sim.At(des.Time(i*7%997), fn)
	}
	rp.each("des.schedule_fire", true, func(i int, _ request, _ *doc) {
		sim.At(sim.Now()+des.Time(1+i*31%1009), fn)
		sim.Step()
	})

	// A processor-sharing resource with a handful of jobs in flight.
	psim := des.New()
	res := des.NewPSResource(psim, "cpu", 40e6)
	for i := 0; i < 8; i++ {
		res.Submit(float64(1e6*(i+1)), fn)
	}
	rp.each("des.ps_submit", false, func(_ int, _ request, d *doc) {
		res.Submit(float64(d.Size)+1e5, fn)
		psim.Step()
	})
}
