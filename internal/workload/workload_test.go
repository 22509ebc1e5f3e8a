package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/transport/harness"
)

// TestSmallWorkloadCompletes: every flow finishes intact on both
// stacks through the identical engine code path.
func TestSmallWorkloadCompletes(t *testing.T) {
	for _, k := range []harness.Kind{harness.KindSublayeredNative, harness.KindSublayeredShim, harness.KindMonolithic} {
		r := Run(Config{Seed: 3, Flows: 25, Client: k, Server: k, KeepPerFlow: true})
		if r.Completed != 25 || r.Failed != 0 {
			t.Errorf("%s: completed=%d failed=%d", k, r.Completed, r.Failed)
		}
		if len(r.Violations) != 0 {
			t.Errorf("%s: watchdog violations: %v", k, r.Violations)
		}
		if r.Fairness <= 0 || r.Fairness > 1 {
			t.Errorf("%s: Jain index %v out of range", k, r.Fairness)
		}
		if r.FCTp50 <= 0 || r.FCTp99 < r.FCTp50 {
			t.Errorf("%s: percentiles p50=%v p99=%v", k, r.FCTp50, r.FCTp99)
		}
		if len(r.PerFlow) != 25 {
			t.Errorf("%s: per-flow table %d", k, len(r.PerFlow))
		}
		if r.BytesDelivered != r.BytesSent {
			t.Errorf("%s: delivered %d of %d bytes", k, r.BytesDelivered, r.BytesSent)
		}
		if _, ok := r.Metrics.Get("workload/fct_ms"); !ok {
			t.Errorf("%s: snapshot missing workload/fct_ms", k)
		}
		if got := r.Metrics.Value("workload/flows_completed"); got != 25 {
			t.Errorf("%s: workload/flows_completed = %d", k, got)
		}
	}
}

// TestConcurrentSimulatorsShareBufpool runs independent simulations in
// parallel goroutines. Every stack draws wire buffers from the shared
// size-classed pool, so under -race this is the check that concurrent
// simulators cannot corrupt each other through buffer recycling.
func TestConcurrentSimulatorsShareBufpool(t *testing.T) {
	kinds := []harness.Kind{harness.KindSublayeredNative, harness.KindMonolithic,
		harness.KindSublayeredShim, harness.KindSublayeredNative}
	done := make(chan error, len(kinds))
	for i, k := range kinds {
		go func(seed int64, k harness.Kind) {
			r := Run(Config{Seed: seed, Flows: 40, Client: k, Server: k})
			if r.Completed != 40 || r.Failed != 0 {
				done <- fmt.Errorf("%s seed %d: completed=%d failed=%d", k, seed, r.Completed, r.Failed)
				return
			}
			done <- nil
		}(int64(i+1), k)
	}
	for range kinds {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestMixedStacksInterop drives a sublayered-shim client against a
// monolithic server — the engine only sees transport.Stack, so the
// interop pairing is one Config change.
func TestMixedStacksInterop(t *testing.T) {
	r := Run(Config{Seed: 5, Flows: 30, Client: harness.KindSublayeredShim, Server: harness.KindMonolithic})
	if r.Completed != 30 || len(r.Violations) != 0 {
		t.Fatalf("completed=%d violations=%v", r.Completed, r.Violations)
	}
}

// TestReportDeterministic pins the engine's contract: the same Config
// marshals to byte-identical JSON, different seeds differ.
func TestReportDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Flows: 40}
	a, _ := json.Marshal(Run(cfg))
	b, _ := json.Marshal(Run(cfg))
	if !bytes.Equal(a, b) {
		t.Error("same seed, different reports")
	}
	cfg.Seed = 8
	c, _ := json.Marshal(Run(cfg))
	if bytes.Equal(a, c) {
		t.Error("different seeds, identical reports")
	}
}

// TestRunSeedsParallelMatchesSerial: simulators share no state, so a
// 4-worker pool returns byte-identical reports in the same order as
// serial execution.
func TestRunSeedsParallelMatchesSerial(t *testing.T) {
	cfg := Config{Seed: 0, Flows: 20}
	seeds := []int64{11, 12, 13, 14, 15, 16}
	serial := RunSeeds(cfg, seeds, 1)
	parallel := RunSeeds(cfg, seeds, 4)
	if len(serial) != len(seeds) || len(parallel) != len(seeds) {
		t.Fatalf("lengths %d/%d", len(serial), len(parallel))
	}
	for i := range seeds {
		if serial[i].Seed != seeds[i] {
			t.Errorf("serial[%d].Seed = %d, want %d", i, serial[i].Seed, seeds[i])
		}
		a, _ := json.Marshal(serial[i])
		b, _ := json.Marshal(parallel[i])
		if !bytes.Equal(a, b) {
			t.Errorf("seed %d: parallel report differs from serial", seeds[i])
		}
	}
}

// TestThousandFlows is the E11 acceptance floor: a 1,000-flow run
// completes on both stacks with zero invariant violations.
func TestThousandFlows(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-flow matrix")
	}
	for _, k := range MatrixKinds {
		r := Run(Config{Seed: 1, Flows: 1000, Client: k, Server: k})
		if r.Completed != 1000 {
			t.Errorf("%s: completed %d of 1000 (failed %d)", k, r.Completed, r.Failed)
		}
		if len(r.Violations) != 0 {
			t.Errorf("%s: %d watchdog violations, first: %s", k, len(r.Violations), r.Violations[0])
		}
	}
}

// TestPerfReportDeterministic: the identity CI checks — Rows and Seed
// byte-identical across runs, wall-clock Timing excluded.
func TestPerfReportDeterministic(t *testing.T) {
	a := perfReport(2, []int{5, 20}, 10, 6)
	b := perfReport(2, []int{5, 20}, 10, 6)
	if !bytes.Equal(a.DeterministicJSON(), b.DeterministicJSON()) {
		t.Error("deterministic JSON differs between runs")
	}
	if a.Timing == nil || a.Timing.WallNs <= 0 || a.Timing.EventsPerSec <= 0 {
		t.Errorf("timing not populated: %+v", a.Timing)
	}
	if bytes.Contains(a.DeterministicJSON(), []byte("timing")) {
		t.Error("wall-clock timing leaked into the deterministic identity")
	}
	if len(a.Rows) != 4 {
		t.Fatalf("rows = %d", len(a.Rows))
	}
	for _, row := range a.Rows {
		if row.Completed != row.Flows || row.Violations != 0 {
			t.Errorf("%s/%d: completed=%d violations=%d", row.Stack, row.Flows, row.Completed, row.Violations)
		}
	}
	if len(a.Bakeoff) != 18 {
		t.Fatalf("bakeoff rows = %d, want 18 (2 stacks × 3 CCs × 3 regimes)", len(a.Bakeoff))
	}
	for _, row := range a.Bakeoff {
		if row.Completed != 6 || row.Violations != 0 {
			t.Errorf("%s/%s/%s: completed=%d violations=%d",
				row.Stack, row.CC, row.Regime, row.Completed, row.Violations)
		}
	}
}

// TestBakeoffSwapsControllers pins the engine-level CC axis: Config.CC
// reaches both stacks' Config.CC, the fault script
// runs (bursty regime records GE transitions in the snapshot), and
// every cell completes all flows intact.
func TestBakeoffSwapsControllers(t *testing.T) {
	if testing.Short() {
		t.Skip("18-cell matrix")
	}
	cells := Bakeoff(21, 8)
	if len(cells) != 18 {
		t.Fatalf("cells = %d, want 18", len(cells))
	}
	for _, c := range cells {
		r := c.Report
		if r.CC != c.CC {
			t.Errorf("%s/%s/%s: report cc = %q", c.Kind, c.CC, c.Regime, r.CC)
		}
		if r.Completed != 8 || len(r.Violations) != 0 {
			t.Errorf("%s/%s/%s: completed=%d violations=%v",
				c.Kind, c.CC, c.Regime, r.Completed, r.Violations)
		}
		if _, ok := r.Metrics.Get("faults/ge_transitions"); c.Regime == "bursty" && !ok {
			t.Errorf("%s/%s/bursty: snapshot missing fault-injector counters", c.Kind, c.CC)
		}
	}
}

// TestRunSeedsSpeedup is the >1.5× acceptance check. It needs real
// cores; on a 1-CPU host the pool degenerates to serial and the test
// skips.
func TestRunSeedsSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >=4 CPUs for a speedup measurement, have %d", runtime.NumCPU())
	}
	_, serial, parallel, speedup := measureSpeedup(Config{Seed: 42, Flows: 400,
		Client: harness.KindSublayeredNative, Server: harness.KindSublayeredNative})
	t.Logf("serial=%v parallel=%v speedup=%.2fx", time.Duration(serial), time.Duration(parallel), speedup)
	if speedup < 1.5 {
		t.Errorf("RunSeeds speedup %.2fx < 1.5x at 4 workers", speedup)
	}
}
