package main

import (
	"strings"

	"repro/internal/metrics"
)

// foldSnapshot sums a registry snapshot's counters by path with the
// per-instance segments (n<N>, conn<N>, link<N>, shard<N>) removed, so
// "n3/transport/conn17/rd/retransmits" and a stack-level
// "n3/transport/rd/retransmits" both land on "transport/rd/retransmits".
// Gauges and histograms are skipped: their values do not add up across
// instances. The fold is the benchmark's own work and runs outside every
// timed region.
func foldSnapshot(s metrics.Snapshot, into map[string]int64) {
	var b strings.Builder
	for _, sm := range s.Samples {
		if sm.Kind != metrics.KindCounter {
			continue
		}
		b.Reset()
		name := sm.Name
		for name != "" {
			seg := name
			if i := strings.IndexByte(name, '/'); i >= 0 {
				seg, name = name[:i], name[i+1:]
			} else {
				name = ""
			}
			if isInstance(seg) {
				continue
			}
			if b.Len() > 0 {
				b.WriteByte('/')
			}
			b.WriteString(seg)
		}
		into[b.String()] += sm.Value
	}
}

// isInstance reports whether a path segment names one instance of a
// repeated scope: a known prefix followed only by digits.
func isInstance(seg string) bool {
	for _, p := range [...]string{"conn", "link", "shard", "n"} {
		if rest, ok := strings.CutPrefix(seg, p); ok && rest != "" && strings.Trim(rest, "0123456789") == "" {
			return true
		}
	}
	return false
}

// sumTail adds every folded counter whose path ends in one of the
// given tails, matched on whole segments ("rd/retransmits" matches
// "transport/rd/retransmits" but not "transport/rd/fast_retransmits").
func sumTail(c map[string]int64, tails ...string) int64 {
	var n int64
	for k, v := range c {
		for _, t := range tails {
			if k == t || strings.HasSuffix(k, "/"+t) {
				n += v
			}
		}
	}
	return n
}

// ratio returns num/den, or 0 when there is nothing to divide.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// workCounts derives the per-layer work counts from a folded snapshot.
// They are deterministic for a given workload and seed: a change that
// only makes the program faster leaves every one of them unchanged.
func workCounts(c map[string]int64, series int, opsIssued int64) []metric {
	rdSent := sumTail(c, "rd/segments_sent")
	rdRetx := sumTail(c, "rd/retransmits")
	monoOut := sumTail(c, "tcp/segments_out")
	monoRetx := sumTail(c, "tcp/retransmits")
	var crossings int64
	for k, v := range c {
		if strings.Contains(k, "crossings/") && !strings.HasSuffix(k, "_bytes") {
			crossings += v
		}
	}
	count := func(name string, v int64) metric { return metric{name, float64(v), "count"} }
	return []metric{
		count("netsim.events", sumTail(c, "netsim/events/executed")),
		count("netsim.events_cancelled", sumTail(c, "netsim/events/cancelled")),
		count("netsim.link_sent", sumTail(c, "netsim/sent")),
		count("netsim.link_queue_drop", sumTail(c, "netsim/queue_drop")),
		count("netsim.link_lost", sumTail(c, "netsim/lost")),
		count("network.forwarded", sumTail(c, "network/forwarding/forwarded")),
		count("network.control_sent", sumTail(c, "neighbor/hellos_sent", "adverts_sent", "triggered_sent")),
		count("sublayered.crossings", crossings),
		count("sublayered.rd_segments_sent", rdSent),
		count("sublayered.rd_retransmits", rdRetx),
		{"sublayered.rd_useful_ratio", ratio(rdSent, rdSent+rdRetx), "ratio"},
		count("monolithic.segments_out", monoOut),
		count("monolithic.retransmits", monoRetx),
		{"monolithic.useful_ratio", ratio(monoOut-monoRetx, monoOut), "ratio"},
		count("metrics.series", int64(series)),
		count("overlay.retries", sumTail(c, "overlay/retries")),
		count("overlay.dup_replies", sumTail(c, "overlay/dup_replies")),
		{"overlay.msgs_per_op", ratio(sumTail(c, "overlay/frames_out"), opsIssued), "msgs/op"},
	}
}
