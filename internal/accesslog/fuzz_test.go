package accesslog

import "testing"

// FuzzParseLine fuzzes the parser every replayed log goes through. No
// input may panic it, and every line it accepts must round-trip: the
// entry's own CLF rendering parses back to the same entry, instant and
// zone offset included.
func FuzzParseLine(f *testing.F) {
	f.Add(sampleEntry().String())
	f.Add(`10.0.0.1 ident bob [31/Dec/1999:23:59:59 +0000] "POST /cgi-bin/q?a=1&b=2 HTTP/1.1" 503 -`)
	f.Add(`h - - [02/Jan/2006:15:04:05 -0700] "GET  /p HTTP/1.0" +200 -0 extra`)
	f.Add(`h  - [02/Jan/2006:15:04:05.5 -0700] "GET  /p HTTP/1.0" +200 -0`)
	f.Add(`h - - [02/Jan/2006:15:04:05 -0700 "GET /p HTTP/1.0" 200 1`)
	f.Fuzz(func(t *testing.T, line string) {
		e, err := ParseLine(line)
		if err != nil {
			return
		}
		back, err := ParseLine(e.String())
		if err != nil {
			t.Fatalf("ParseLine(%q) = %+v, whose line %q does not parse: %v", line, e, e.String(), err)
		}
		_, off := e.Time.Zone()
		_, backOff := back.Time.Zone()
		if !back.Time.Equal(e.Time) || backOff != off {
			t.Fatalf("ParseLine(%q) time %v round-trips to %v", line, e.Time, back.Time)
		}
		back.Time = e.Time
		if back != e {
			t.Fatalf("ParseLine(%q) = %+v round-trips through %q to %+v", line, e, e.String(), back)
		}
	})
}
