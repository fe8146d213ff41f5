package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// generator around its own calls. Spans of one logical request share
// Trace; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog collects spans in memory for one goroutine; logs are merged and
// written once the run is over. A nil *spanLog records nothing, which is
// what "tracing off" means in the generator.
type spanLog struct {
	epoch  time.Time
	spans  []span
	nextID int64
	stride int64 // ids step by stride so C workers never collide
}

// maxSpansPerLog bounds a traced run's memory and its spans file; once a
// log is full further spans are dropped, and the steady-state medians are
// already settled by then.
const maxSpansPerLog = 150000

func newSpanLog(epoch time.Time, worker, workers int) *spanLog {
	return &spanLog{
		epoch:  epoch,
		spans:  make([]span, 0, maxSpansPerLog),
		nextID: int64(worker + 1),
		stride: int64(workers),
	}
}

func (l *spanLog) full() bool { return l == nil || len(l.spans) >= maxSpansPerLog }

// reserve hands out an id for a span whose end is not known yet, so its
// children can name it as parent; finish files it. A full log hands out 0
// and files nothing.
func (l *spanLog) reserve() int64 {
	if l.full() {
		return 0
	}
	id := l.nextID
	l.nextID += l.stride
	return id
}

func (l *spanLog) finish(id, parent, trace int64, name string, start, end time.Time) {
	if id == 0 || len(l.spans) >= cap(l.spans) {
		return
	}
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(l.epoch).Microseconds(), End: end.Sub(l.epoch).Microseconds(),
	})
}

// add records a finished [start, end] and returns the span's id.
func (l *spanLog) add(parent, trace int64, name string, start, end time.Time) int64 {
	id := l.reserve()
	l.finish(id, parent, trace, name, start, end)
	return id
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover. Overlapping children are counted once
// and a child is clipped to its parent, so self time is never negative.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		var covered int64
		edge := s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// spanStats is the per-name summary the traced run prints: how many, the
// median duration and the median self time.
type spanStats struct {
	Count   int
	P50     float64
	SelfP50 float64
}

func summarizeSpans(spans []span) map[string]spanStats {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur()))
		selfs[s.Name] = append(selfs[s.Name], float64(self[s.ID]))
	}
	out := make(map[string]spanStats, len(durs))
	for name, d := range durs {
		out[name] = spanStats{Count: len(d), P50: median(d), SelfP50: median(selfs[name])}
	}
	return out
}

// writeSpans writes one JSON object per line to bench/out/<name>.spans.jsonl.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
