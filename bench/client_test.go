package main

import (
	"bytes"
	"hash/crc32"
	"strings"
	"testing"
	"time"
)

// A simulated clock: sleeping and serving both just move it.
type fakeClock struct{ t time.Time }

func (f *fakeClock) clock() clock {
	return clock{now: func() time.Time { return f.t }, sleep: func(d time.Duration) { f.t = f.t.Add(d) }}
}

// Open-loop latency runs from the due instant, so one stalled request
// makes the ones queued behind it late and slow, not just itself.
func TestOpenLoopTimesFromDueInstant(t *testing.T) {
	const ms = time.Millisecond
	fc := &fakeClock{t: time.Unix(0, 0)}
	t0 := fc.t
	service := map[int]time.Duration{2: 12 * ms}
	var lat, late []time.Duration
	runOpenLoop(fc.clock(), t0, 5*ms, 6, 1, 0, func(i int, due time.Time, l time.Duration) {
		if want := t0.Add(time.Duration(i) * 5 * ms); !due.Equal(want) {
			t.Errorf("request %d due %v, want %v", i, due, want)
		}
		d, ok := service[i]
		if !ok {
			d = ms
		}
		fc.t = fc.t.Add(d)
		lat = append(lat, fc.t.Sub(due))
		late = append(late, l)
	})
	wantLat := []time.Duration{ms, ms, 12 * ms, 8 * ms, 4 * ms, ms}
	wantLate := []time.Duration{0, 0, 0, 7 * ms, 3 * ms, 0}
	for i := range wantLat {
		if lat[i] != wantLat[i] || late[i] != wantLate[i] {
			t.Errorf("request %d: latency %v late %v, want %v and %v", i, lat[i], late[i], wantLat[i], wantLate[i])
		}
	}
	// Two workers split the schedule by stride; each keeps its own dues.
	var got []int
	runOpenLoop(fc.clock(), fc.t, 5*ms, 7, 2, 1, func(i int, _ time.Time, _ time.Duration) { got = append(got, i) })
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Errorf("worker 1 of 2 issued %v", got)
	}
}

func TestReadHeadAndBody(t *testing.T) {
	body := strings.Repeat("sweb", 50000) // larger than the read buffer
	wire := "HTTP/1.1 200 OK\r\ncontent-length: 200000\r\nConnection: Close\r\nLocation: http://127.0.0.1:9/docs/a?swebr=1\r\n\r\n" + body +
		"HTTP/1.1 304 Not Modified\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n"
	w := newWorker([]string{"127.0.0.1:8", "127.0.0.1:9"}, nil, false, &connGauge{}, nil)
	w.br.Reset(strings.NewReader(wire))
	h, err := w.readHead()
	if err != nil || h.status != 200 || h.clen != 200000 || !h.closeConn {
		t.Fatalf("head %+v, %v", h, err)
	}
	crc, err := w.readBody(h.clen)
	if err != nil || crc != crc32.ChecksumIEEE([]byte(body)) {
		t.Fatalf("body crc %08x, %v", crc, err)
	}
	node, target, err := w.resolveLocation()
	if err != nil || node != 1 || !bytes.Equal(target, []byte("/docs/a?swebr=1")) {
		t.Errorf("location -> node %d target %q, %v", node, target, err)
	}
	h, err = w.readHead()
	if err != nil || h.status != 304 || h.clen != 0 || h.closeConn {
		t.Errorf("second head %+v, %v", h, err)
	}
	for _, bad := range []string{
		"HTTP/1.1 2x0 OK\r\n\r\n",
		"ICY 200 OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 12a\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nabc", // short body
	} {
		w.br.Reset(strings.NewReader(bad))
		h, err := w.readHead()
		if err == nil {
			_, err = w.readBody(h.clen)
		}
		if err == nil {
			t.Errorf("%q parsed cleanly", bad)
		}
	}
	w.loc = []byte("http://10.0.0.1:80/x")
	if _, _, err := w.resolveLocation(); err == nil {
		t.Error("a Location outside the cluster resolved")
	}
}

func TestConnGaugeHighWater(t *testing.T) {
	g := &connGauge{}
	g.inc()
	g.inc()
	g.dec()
	g.inc()
	g.dec()
	g.dec()
	if g.high.Load() != 2 || g.open.Load() != 0 {
		t.Errorf("high %d open %d", g.high.Load(), g.open.Load())
	}
}
