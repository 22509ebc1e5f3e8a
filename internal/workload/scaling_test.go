package workload

import (
	"os"
	"testing"
)

// TestScalingMatrixIdentity runs a shrunk E16 matrix (the 1k-flow
// point) and asserts what the full experiment asserts: every cell
// completes, the deterministic row carries the identical-across-
// backends flag, and the timing section has one cell per backend with
// a shards=1 speedup of exactly 1.
func TestScalingMatrixIdentity(t *testing.T) {
	rows, timings := Scaling(23, []int{1000}, ScalingShards)
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	r := rows[0]
	if !r.Identical {
		t.Error("reports diverged across backends")
	}
	if r.Completed != 1000 || r.Failed != 0 || r.Violations != 0 {
		t.Errorf("completed=%d failed=%d violations=%d", r.Completed, r.Failed, r.Violations)
	}
	if want := 1 + len(ScalingShards); len(timings) != want {
		t.Fatalf("timing cells = %d, want %d", len(timings), want)
	}
	if s := ShardSpeedup(timings, 1000, 1); s != 1.0 {
		t.Errorf("shards=1 speedup = %v, want 1.0 by construction", s)
	}
	for _, tm := range timings {
		if tm.EventsPerSec <= 0 {
			t.Errorf("%s: events/sec = %v", tm.Backend, tm.EventsPerSec)
		}
	}
}

// TestRegistrySizeIndependentOfFlows pins metric cardinality to the
// topology: the E16 world registers the same series whether it carries
// 100 or 1,000 flows, because each stack exports connection totals
// rather than one scope per connection.
func TestRegistrySizeIndependentOfFlows(t *testing.T) {
	small := Run(ScalingConfig(5, "sim", 100))
	large := Run(ScalingConfig(5, "sim", 1000))
	if small.Completed != 100 || large.Completed != 1000 {
		t.Fatalf("completed %d/100 and %d/1000", small.Completed, large.Completed)
	}
	if a, b := len(small.Metrics.Samples), len(large.Metrics.Samples); a != b {
		t.Errorf("%d series at 100 flows, %d at 1000", a, b)
	}
}

// TestScalingLongSoak is the weekly 100k-flow soak (make soak-long):
// the full long axis through every backend with byte-identity
// asserted per flow count. It is double-gated — the per-PR pipeline
// skips it via -short, and even a full `go test ./...` skips it
// unless E16_LONG is set — because a single cell is minutes of wall
// clock.
func TestScalingLongSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("long E16 soak; the per-PR pipeline runs -short")
	}
	if os.Getenv("E16_LONG") == "" {
		t.Skip("set E16_LONG=1 (the scheduled soak workflow does) to run the 100k-flow matrix")
	}
	rows, _ := Scaling(23, ScalingFlowsLong, ScalingShards)
	for _, r := range rows {
		if !r.Identical {
			t.Errorf("flows=%d: reports diverged across backends", r.Flows)
		}
		if r.Completed != r.Flows || r.Violations != 0 {
			t.Errorf("flows=%d: completed=%d violations=%d", r.Flows, r.Completed, r.Violations)
		}
	}
}
