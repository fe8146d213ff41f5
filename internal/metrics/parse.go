package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one exposition line: a metric instance and its value at scrape
// time. Histograms appear as their _bucket/_sum/_count series; a bucket
// line may carry the bucket's retained exemplar.
type Sample struct {
	Name     string
	Labels   Labels
	Value    float64
	Exemplar *Exemplar
}

// Key canonically identifies the sample (name plus sorted labels), so
// samples from different nodes can be matched for merging.
func (s Sample) Key() string {
	sig := signature(s.Labels)
	if sig == "" {
		return s.Name
	}
	return s.Name + "{" + sig + "}"
}

// ParseText parses the Prometheus text exposition format (the subset
// WriteText emits: comment lines, `name value`, `name{labels} value`).
func ParseText(r io.Reader) ([]Sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 256<<10) // grows from 4 KiB as long lines need
	var out []Sample
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %v", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseLine(line string) (Sample, error) {
	var s Sample
	brace := strings.IndexByte(line, '{')
	space := strings.IndexByte(line, ' ')
	if brace >= 0 && (space < 0 || brace < space) {
		s.Name = line[:brace]
		// The label section's closing brace must be found by an
		// escape-aware scan: a '}' may legitimately occur inside a quoted
		// label value, and an exemplar suffix carries its own braces, so
		// neither a first- nor a last-index search is safe.
		end, err := labelEnd(line, brace)
		if err != nil {
			return s, err
		}
		labels, err := parseLabels(line[brace+1 : end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		line = strings.TrimSpace(line[end+1:])
	} else {
		if space < 0 {
			return s, fmt.Errorf("no value in %q", line)
		}
		s.Name = line[:space]
		line = strings.TrimSpace(line[space+1:])
	}
	if s.Name == "" {
		return s, fmt.Errorf("empty metric name")
	}
	// Split off an OpenMetrics-style exemplar suffix before reading the
	// value. The value itself is a single space-free token, so the first
	// " # {" in the remainder can only start an exemplar.
	if i := strings.Index(line, " # {"); i >= 0 {
		ex, err := parseExemplar(line[i+3:])
		if err != nil {
			return s, err
		}
		s.Exemplar = ex
		line = strings.TrimSpace(line[:i])
	}
	// A timestamp field would be a second column; this emitter never
	// writes one, so the remainder is exactly the value.
	v, err := parseNumber(strings.Fields(line))
	if err != nil {
		return s, err
	}
	s.Value = v
	return s, nil
}

// labelEnd returns the index of the '}' terminating the label section that
// opens at s[open], skipping braces inside quoted (escaped) label values.
func labelEnd(s string, open int) (int, error) {
	inQuote := false
	for i := open + 1; i < len(s); i++ {
		c := s[i]
		if inQuote {
			switch c {
			case '\\':
				i++ // skip the escaped byte
			case '"':
				inQuote = false
			}
			continue
		}
		switch c {
		case '"':
			inQuote = true
		case '}':
			return i, nil
		}
	}
	return 0, fmt.Errorf("unterminated labels in %q", s)
}

// parseExemplar parses `{trace_id="..."} <value> <unix-micros>` — the
// suffix WriteText appends to bucket lines holding an exemplar.
func parseExemplar(s string) (*Exemplar, error) {
	if s == "" || s[0] != '{' {
		return nil, fmt.Errorf("exemplar without labels in %q", s)
	}
	end, err := labelEnd(s, 0)
	if err != nil {
		return nil, err
	}
	labels, err := parseLabels(s[1:end])
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(s[end+1:])
	if len(fields) != 2 {
		return nil, fmt.Errorf("want exemplar value and timestamp, got %v", fields)
	}
	v, err := parseNumber(fields[:1])
	if err != nil {
		return nil, err
	}
	ts, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad exemplar timestamp %q", fields[1])
	}
	return &Exemplar{TraceID: labels["trace_id"], Value: v, TSMicros: ts}, nil
}

func parseNumber(fields []string) (float64, error) {
	if len(fields) != 1 {
		return 0, fmt.Errorf("want one value field, got %v", fields)
	}
	switch fields[0] {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(fields[0], 64)
}

// parseLabels parses `k="v",k2="v2"` with \" \\ \n escapes in values.
func parseLabels(s string) (Labels, error) {
	l := Labels{}
	i := 0
	for i < len(s) {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without '=' in %q", s)
		}
		key := strings.TrimSpace(s[i : i+eq])
		if key == "" {
			return nil, fmt.Errorf("empty label key in %q", s)
		}
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return nil, fmt.Errorf("unquoted label value in %q", s)
		}
		i++
		var b strings.Builder
		closed := false
		for i < len(s) {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					b.WriteByte('\n')
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				default:
					b.WriteByte('\\')
					b.WriteByte(s[i])
				}
				i++
				continue
			}
			i++
			if c == '"' {
				closed = true
				break
			}
			b.WriteByte(c)
		}
		if !closed {
			return nil, fmt.Errorf("unterminated label value in %q", s)
		}
		l[key] = b.String()
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
	return l, nil
}

// MergeSamples sums matching samples (equal name and labels) across node
// scrapes: counters and histogram buckets add naturally, and summed gauges
// read as cluster totals. A merged bucket keeps the freshest exemplar among
// its inputs. The result is sorted by Key for deterministic reports.
func MergeSamples(scrapes ...[]Sample) []Sample {
	acc := make(map[string]*Sample)
	keys := make([]string, 0)
	for _, scrape := range scrapes {
		for _, s := range scrape {
			k := s.Key()
			if a, ok := acc[k]; ok {
				a.Value += s.Value
				if s.Exemplar != nil && (a.Exemplar == nil || s.Exemplar.TSMicros >= a.Exemplar.TSMicros) {
					a.Exemplar = s.Exemplar
				}
				continue
			}
			cp := s
			if s.Labels != nil {
				cp.Labels = make(Labels, len(s.Labels))
				for lk, lv := range s.Labels {
					cp.Labels[lk] = lv
				}
			}
			acc[k] = &cp
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]Sample, len(keys))
	for i, k := range keys {
		out[i] = *acc[k]
	}
	return out
}

// Value returns the value of the sample matching name and labels, or 0
// (and false) when absent.
func Value(samples []Sample, name string, labels Labels) (float64, bool) {
	want := Sample{Name: name, Labels: labels}.Key()
	for _, s := range samples {
		if s.Key() == want {
			return s.Value, true
		}
	}
	return 0, false
}

// Bucket is one cumulative histogram cell: the upper bound ("le") and the
// count of observations at or below it.
type Bucket struct {
	UpperBound      float64
	CumulativeCount float64
}

// Buckets extracts the cumulative buckets of histogram name restricted to
// samples whose labels (excluding "le") match sel, sorted by upper bound.
func Buckets(samples []Sample, name string, sel Labels) []Bucket {
	var out []Bucket
	for _, s := range samples {
		if s.Name != name+"_bucket" {
			continue
		}
		le, ok := s.Labels["le"]
		if !ok {
			continue
		}
		match := true
		for k, v := range sel {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		// Also require the sample to carry no extra labels beyond sel+le,
		// so phase="parse" does not absorb phase="parse",node="1" cells.
		if match && len(s.Labels) != len(sel)+1 {
			match = false
		}
		if !match {
			continue
		}
		ub := math.Inf(1)
		if le != "+Inf" {
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			ub = v
		}
		out = append(out, Bucket{UpperBound: ub, CumulativeCount: s.Value})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UpperBound < out[j].UpperBound })
	return out
}

// HistogramQuantile estimates the q-th quantile from cumulative buckets
// (the histogram_quantile estimator: linear interpolation inside the
// bucket containing the target rank). Buckets must be sorted ascending and
// end with the +Inf bucket. Returns NaN with no observations.
func HistogramQuantile(q float64, buckets []Bucket) float64 {
	if len(buckets) == 0 {
		return math.NaN()
	}
	total := buckets[len(buckets)-1].CumulativeCount
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * total
	prevBound, prevCum := 0.0, 0.0
	for _, b := range buckets {
		if b.CumulativeCount >= rank {
			if math.IsInf(b.UpperBound, 1) {
				return prevBound
			}
			inBucket := b.CumulativeCount - prevCum
			if inBucket <= 0 {
				return b.UpperBound
			}
			frac := (rank - prevCum) / inBucket
			return prevBound + (b.UpperBound-prevBound)*frac
		}
		prevBound, prevCum = b.UpperBound, b.CumulativeCount
	}
	return prevBound
}
