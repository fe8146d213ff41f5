package heat

import (
	"fmt"

	"sweb/internal/stats"
)

// Render draws the merged heat ranking as an aligned table, one renderer
// for both substrates. limit bounds the rows (<= 0: all).
func Render(title string, m Merged, limit int) string {
	tbl := stats.Table{
		Title: title,
		Header: []string{"path", "owner", "req", "±err", "share",
			"bytes", "relays", "misses", "mean"},
	}
	entries := m.Entries
	if limit > 0 && len(entries) > limit {
		entries = entries[:limit]
	}
	for _, e := range entries {
		mean := "-"
		if e.Count > 0 && e.LatencySum > 0 {
			mean = stats.FormatSeconds(e.LatencySum / float64(e.Count))
		}
		share := "-"
		if m.Total > 0 {
			share = fmt.Sprintf("%.1f%%", 100*float64(e.Count)/float64(m.Total))
		}
		tbl.AddRowStrings(
			e.Path,
			optNode(e.Owner),
			fmt.Sprintf("%d", e.Count),
			fmt.Sprintf("%d", e.ErrBound),
			share,
			fmt.Sprintf("%d", e.Bytes),
			fmt.Sprintf("%d", e.Relays),
			fmt.Sprintf("%d", e.Misses),
			mean,
		)
	}
	if tbl.Rows() == 0 {
		tbl.AddRowStrings("(no documents)", "-", "-", "-", "-", "-", "-", "-", "-")
	}
	return tbl.String()
}

// RenderAdvice draws the placement advisor's report. limit bounds the
// rows (<= 0: all).
func RenderAdvice(title string, advs []Advice, limit int) string {
	tbl := stats.Table{
		Title: title,
		Header: []string{"path", "share", "owner", "home", "relay",
			"replica-on", "pred-reduction"},
	}
	if limit > 0 && len(advs) > limit {
		advs = advs[:limit]
	}
	for _, a := range advs {
		tbl.AddRowStrings(
			a.Path,
			fmt.Sprintf("%.1f%%", 100*a.Share),
			optNode(a.Owner),
			fmt.Sprintf("%.1f%%", 100*a.HomeShare),
			fmt.Sprintf("%.1f%%", 100*a.RelayShare),
			optNode(a.ReplicaNode),
			fmt.Sprintf("%.2f%%", 100*a.PredictedReduction),
		)
	}
	if tbl.Rows() == 0 {
		tbl.AddRowStrings("(no documents)", "-", "-", "-", "-", "-", "-")
	}
	return tbl.String()
}

func optNode(n int) string {
	if n < 0 {
		return "-"
	}
	return fmt.Sprintf("node%d", n)
}
