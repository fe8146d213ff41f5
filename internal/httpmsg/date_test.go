package httpmsg

import (
	"math/rand/v2"
	"testing"
	"time"
)

var refTime = time.Date(1994, time.November, 6, 8, 49, 37, 0, time.UTC)

func TestFormatHTTPDate(t *testing.T) {
	if got := FormatHTTPDate(refTime); got != "Sun, 06 Nov 1994 08:49:37 GMT" {
		t.Fatalf("got %q", got)
	}
}

func TestParseHTTPDateAllFormats(t *testing.T) {
	cases := []string{
		"Sun, 06 Nov 1994 08:49:37 GMT",  // RFC 1123
		"Sunday, 06-Nov-94 08:49:37 GMT", // RFC 850
		"Sun Nov  6 08:49:37 1994",       // asctime
	}
	for _, in := range cases {
		got, err := ParseHTTPDate(in)
		if err != nil {
			t.Errorf("parse %q: %v", in, err)
			continue
		}
		if !got.Equal(refTime) {
			t.Errorf("parse %q = %v, want %v", in, got, refTime)
		}
	}
}

func TestParseHTTPDateRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "yesterday", "2024-01-01T00:00:00Z"} {
		if _, err := ParseHTTPDate(in); err == nil {
			t.Errorf("parsed %q", in)
		}
	}
}

func TestNotModified(t *testing.T) {
	mod := refTime
	sameOrAfter := FormatHTTPDate(mod)
	later := FormatHTTPDate(mod.Add(time.Hour))
	earlier := FormatHTTPDate(mod.Add(-time.Hour))
	cases := []struct {
		ims  string
		want bool
	}{
		{"", false},           // unconditional
		{sameOrAfter, true},   // unchanged since the browser's copy
		{later, true},         // browser copy is newer than the file
		{earlier, false},      // file changed since the browser's copy
		{"not a date", false}, // malformed: serve the document
	}
	for _, c := range cases {
		if got := NotModified(c.ims, mod); got != c.want {
			t.Errorf("NotModified(%q) = %v want %v", c.ims, got, c.want)
		}
	}
}

func TestNotModifiedIgnoresSubSecond(t *testing.T) {
	mod := refTime.Add(300 * time.Millisecond)
	if !NotModified(FormatHTTPDate(refTime), mod) {
		t.Fatal("sub-second modification should not defeat the cache")
	}
}

func TestStatusTextNotModified(t *testing.T) {
	if StatusText(StatusNotModified) != "Not Modified" {
		t.Fatal("missing 304 reason phrase")
	}
}

// TestHTTPDateRoundTrip: what FormatHTTPDate emits, ParseHTTPDate reads
// back to the same second, and the zone is the literal GMT of RFC 1945.
func TestHTTPDateRoundTrip(t *testing.T) {
	est := time.FixedZone("EST", -5*3600)
	for _, in := range []time.Time{
		refTime,
		refTime.In(est),
		time.Date(2026, time.September, 26, 23, 59, 59, 999, time.UTC),
		time.Unix(0, 0),
	} {
		s := FormatHTTPDate(in)
		if len(s) != len(httpDateLayout) || s[len(s)-4:] != " GMT" {
			t.Errorf("FormatHTTPDate(%v) = %q", in, s)
		}
		back, err := ParseHTTPDate(s)
		if err != nil {
			t.Errorf("parse %q: %v", s, err)
			continue
		}
		if !back.Equal(in.Truncate(time.Second)) {
			t.Errorf("round trip %v -> %q -> %v", in, s, back)
		}
	}
}

// TestAppendHTTPDateMatchesFormat holds the field-by-field date renderer
// to time's own formatter over random instants, byte for byte: any second
// of years 0..9999 in any zone, plus years before 0 and after 9999, which
// the layout renders wider than four digits.
func TestAppendHTTPDateMatchesFormat(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	zones := []*time.Location{time.UTC, time.FixedZone("EST", -5*3600), time.FixedZone("IST", 5*3600+1800)}
	const secsPerYear = 365.2425 * 86400
	yearSeconds := func(y int) int64 { return int64((float64(y) - 1970) * secsPerYear) }
	for i := 0; i < 100000; i++ {
		var sec int64
		switch i % 4 {
		case 0: // anywhere in the four-digit years
			sec = yearSeconds(0) + rng.Int64N(yearSeconds(10000)-yearSeconds(0))
		case 1: // before year 1000
			sec = yearSeconds(0) + rng.Int64N(yearSeconds(1000)-yearSeconds(0))
		case 2: // outside 0..9999 on either side
			sec = yearSeconds(10000) + rng.Int64N(yearSeconds(20000)-yearSeconds(10000))
			if rng.IntN(2) == 0 {
				sec = yearSeconds(-10000) + rng.Int64N(yearSeconds(0)-yearSeconds(-10000))
			}
		default: // around now
			sec = time.Now().Unix() + rng.Int64N(400*86400) - 200*86400
		}
		in := time.Unix(sec, rng.Int64N(1e9)).In(zones[rng.IntN(len(zones))])
		want := in.UTC().Format(httpDateLayout)
		if got := string(appendHTTPDate(nil, in)); got != want {
			t.Fatalf("appendHTTPDate(%v) = %q, want %q", in, got, want)
		}
	}
	for _, y := range []int{-1, 0, 1, 999, 1000, 9999, 10000} {
		in := time.Date(y, time.December, 31, 23, 59, 59, 0, time.UTC)
		if got, want := string(appendHTTPDate(nil, in)), in.Format(httpDateLayout); got != want {
			t.Errorf("year %d: %q, want %q", y, got, want)
		}
	}
}

// TestParseGMTDateAllocatesNothing: the GMT form every server sends parses
// without building a time zone; another zone name still parses, through
// the RFC 1123 fallback.
func TestParseGMTDateAllocatesNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseHTTPDate("Sun, 06 Nov 1994 08:49:37 GMT"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per GMT date, want 0", allocs)
	}
	if _, err := ParseHTTPDate("Sun, 06 Nov 1994 08:49:37 EST"); err != nil {
		t.Fatalf("RFC 1123 date in another zone: %v", err)
	}
}
