package httpmsg

import (
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
