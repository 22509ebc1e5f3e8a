// Package experiments regenerates every table of EXPERIMENTS.md — one
// func(Config) *Result per experiment E1–E16. Each function builds
// its own simulated world from a seed, runs the workload, and returns
// a formatted table plus structured rows, so cmd/benchreport, the
// root-level benchmarks and the tests all share one implementation.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
)

// Result is one regenerated experiment. It marshals deterministically:
// every field is ordered data, and Metrics snapshots are sorted by
// name, so the same seed yields byte-identical JSON.
type Result struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	// Notes carry the paper-vs-measured commentary.
	Notes []string `json:"notes,omitempty"`
	// Metrics is the merged registry snapshot of the experiment's
	// simulated worlds, one name prefix per scenario (e.g.
	// "loss05/n1/transport/rd/retransmits").
	Metrics metrics.Snapshot `json:"metrics"`
}

// Text renders the result as an aligned table.
func (r *Result) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		for i, c := range cols {
			w := 8
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s  ", w, c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// init registers E1–E10; E11–E16 register from their own files.
// Everything else (both cmd tools, the benchmarks, the tests) resolves
// experiments through the registry via Run/RunAll, so a new experiment
// is exactly one Register call.
func init() {
	Register("e1", E1DataLink)
	Register("e2", E2Routing)
	Register("e3", E3SublayeredTCP)
	Register("e4", E4Interop)
	Register("e5", E5Stuffing)
	Register("e6", E6Entanglement)
	Register("e7", E7Performance)
	Register("e8", E8Replace)
	Register("e9", E9Offload)
	Register("e10", E10ChaosSoak)
}
