package flight

import (
	"fmt"

	"sweb/internal/stats"
)

// RenderRecords renders a merged record slice as an aligned table, one
// renderer for both substrates.
func RenderRecords(title string, recs []Record) string {
	tbl := stats.Table{
		Title: title,
		Header: []string{"seq", "t", "node", "conn", "path", "status",
			"bytes", "ttfb", "total", "target", "pred", "flags", "note"},
	}
	for _, r := range recs {
		flags := ""
		if r.Redirected {
			flags += "R"
		}
		if r.CacheHit {
			flags += "C"
		}
		if flags == "" {
			flags = "-"
		}
		tbl.AddRowStrings(
			fmt.Sprintf("%d", r.Seq),
			stats.FormatSeconds(r.AtSeconds),
			fmt.Sprintf("%d", r.Node),
			fmt.Sprintf("%d", r.ConnID),
			r.Path,
			fmt.Sprintf("%d", r.Status),
			fmt.Sprintf("%d", r.Bytes),
			optSeconds(r.TTFBSeconds),
			stats.FormatSeconds(r.TotalSeconds),
			optInt(r.Target),
			optSeconds(r.PredictedSeconds),
			flags,
			r.Notable,
		)
	}
	if tbl.Rows() == 0 {
		tbl.AddRowStrings("-", "-", "-", "-", "(no records)",
			"-", "-", "-", "-", "-", "-", "-", "")
	}
	return tbl.String()
}

func optSeconds(s float64) string {
	if s < 0 {
		return "-"
	}
	return stats.FormatSeconds(s)
}

func optInt(v int) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}
