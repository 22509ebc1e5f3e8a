// Command perfbench is the repository's benchmark. It drives the
// simulator through the program's public entry points (workload.Run,
// overlay.Run, harness.BuildWorld and harness.BuildCluster) on one of
// four workloads, checks every call's outputs, and prints the result as
// one JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload manyflows --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics: host time, CPU,
// allocations and peak heap of the run call, set-up time, and the
// simulated outcomes. With --trace 1 it reports the per-layer ledger:
// CPU and allocations from runtime/pprof profiles folded to the
// repository's modules, spans around set-up and run, tracing overhead,
// and the program's own work counts. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 10, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}

	fmt.Fprintf(stdout, "# host num_cpu=%d GOMAXPROCS=%d go=%s os=%s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(stdout, "# run workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# why %s\n", w.why)

	b := &bench{w: w, seed: *seed, log: stderr}
	d := time.Duration(*seconds) * time.Second
	var figures []metric
	var err error
	if b.warmUp() {
		if *trace == 1 {
			figures, err = b.traced(d)
		} else {
			figures = b.untraced(d)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, p := range b.problems {
		fmt.Fprintf(stdout, "# FAIL %s\n", p)
	}
	correct := len(b.problems) == 0
	if !correct {
		figures = nil // a run that fails a check reports no timing
	}
	for _, m := range figures {
		fmt.Fprintf(stdout, "# %-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, b.attempted, b.failed, map[string]value{}}
	for _, m := range figures {
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// bench runs one workload and keeps the correctness ledger.
type bench struct {
	w    *workloadDef
	seed int64
	log  io.Writer
	// ref is the warm-up call's outcome; every later call must match
	// its simulated outputs exactly.
	ref               outcome
	refOutputs        string
	attempted, failed int
	problems          []string
}

// check applies the correctness checks to one call: no watchdog or
// contract violations, every flow completed where the workload owes
// it, and simulated outputs identical to the warm-up call's. A call
// that fails counts all its operations as failed.
func (b *bench) check(what string, o outcome) bool {
	var bad []string
	if len(o.violations) > 0 {
		bad = append(bad, fmt.Sprintf("%d violations, first: %s", len(o.violations), o.violations[0]))
	}
	if o.mustComplete && o.completed != o.attempted {
		bad = append(bad, fmt.Sprintf("%d of %d operations completed", o.completed, o.attempted))
	}
	if b.refOutputs != "" {
		if got := o.simOutputs(); got != b.refOutputs {
			bad = append(bad, "simulated outputs differ from the warm-up call: "+firstDiff(b.refOutputs, got))
		}
	}
	b.attempted += o.attempted
	if len(bad) == 0 {
		return true
	}
	b.failed += o.attempted
	b.problems = append(b.problems, what+": "+strings.Join(bad, "; "))
	return false
}

// firstDiff names the first field where two simOutputs strings differ.
func firstDiff(want, got string) string {
	w, g := strings.Fields(want), strings.Fields(got)
	for i := range w {
		if i >= len(g) || w[i] != g[i] {
			if i < len(g) {
				return fmt.Sprintf("want %s, got %s", w[i], g[i])
			}
			return "want " + w[i] + ", got nothing"
		}
	}
	return fmt.Sprintf("got extra %s", g[len(w)])
}

// warmUp makes one untimed call, so lazy set-up is not charged to the
// first timed call, and records its outcome as the reference. Where
// the workload has an oracle backend it runs that too and holds it to
// the same outputs.
func (b *bench) warmUp() bool {
	runtime.GC()
	o := summarize(b.w.run(b.seed))
	ok := b.check("warm-up", o)
	b.ref, b.refOutputs = o, o.simOutputs()
	if b.w.oracle != nil {
		runtime.GC()
		ok = b.check("sequential oracle", summarize(b.w.oracle(b.seed))) && ok
	}
	fmt.Fprintf(b.log, "warm-up: %d ops, %d completed, %d events\n",
		o.attempted, o.completed, sumTail(o.counters, "netsim/events/executed"))
	return ok
}

// setupsPerCall is how many set-up timings precede each timed call.
// Spreading them over the measuring time, instead of taking them all
// at once, exposes setup_s to the same host conditions as the calls.
const setupsPerCall = 3

func (b *bench) setupTimes(n int) []float64 {
	var out []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		b.w.setup(b.seed)
		out = append(out, time.Since(t0).Seconds())
	}
	return out
}

// sample is one timed call.
type sample struct {
	wall, cpu float64 // seconds
	allocs    uint64
	peakHeap  uint64 // bytes
	o         outcome
}

// timedCall forces a GC, then times one call: wall clock, process
// CPU, heap allocations and the largest heap in use seen by a sampler.
// The results are summarised after the clock stops.
func (b *bench) timedCall() sample {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	hs := startHeapSampler()
	t0 := time.Now()
	r := b.w.run(b.seed)
	wall := time.Since(t0).Seconds()
	peak := hs.finish()
	cpu := cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	return sample{wall: wall, cpu: cpu, allocs: m1.Mallocs - m0.Mallocs, peakHeap: peak, o: summarize(r)}
}

// untraced measures the end-to-end metrics: timed calls, each preceded
// by timed set-ups, until the measuring time is used; medians reported.
func (b *bench) untraced(d time.Duration) []metric {
	var setups, walls, cpus, opsRate, mbRate, allocs, peaks []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		setups = append(setups, b.setupTimes(setupsPerCall)...)
		s := b.timedCall()
		fmt.Fprintf(b.log, "call %d: wall %.4fs cpu %.4fs allocs %d peak heap %.1f MB\n",
			i, s.wall, s.cpu, s.allocs, float64(s.peakHeap)/1e6)
		if !b.check(fmt.Sprintf("timed call %d", i), s.o) {
			continue
		}
		walls = append(walls, s.wall)
		cpus = append(cpus, s.cpu)
		opsRate = append(opsRate, float64(s.o.completed)/s.wall)
		mbRate = append(mbRate, float64(s.o.payloadBytes)/1e6/s.wall)
		allocs = append(allocs, float64(s.allocs)/1e6)
		peaks = append(peaks, float64(s.peakHeap)/1e6)
	}
	o := b.ref
	fmt.Fprintf(b.log, "timed calls: %d; sim_latency_tail_ms is p%.4g of %d operations\n", len(walls), o.tailPct, o.completed)
	return []metric{
		{"wall_s", median(walls), "s"},
		{"setup_s", median(setups), "s"},
		{"cpu_s", median(cpus), "s"},
		{"ops_per_s", median(opsRate), "1/s"},
		{"payload_mb_per_s", median(mbRate), "MB/s"},
		{"allocs_m", median(allocs), "M"},
		{"peak_heap_mb", median(peaks), "MB"},
		{"completed_frac", ratio(int64(o.completed), int64(o.attempted)), "frac"},
		{"sim_latency_p50_ms", o.latP50, "sim_ms"},
		{"sim_latency_tail_ms", o.latTail, "sim_ms"},
		{"sim_goodput_mbps", o.goodputMbps, "Mb/s"},
	}
}

// allocSampleRate is runtime.MemProfileRate during traced calls: one
// sample per 8 KiB allocated, fine enough to split allocations across
// layers without slowing the run much.
const allocSampleRate = 8 << 10

// traced measures the per-layer ledger. A third of the measuring time
// goes to untraced calls, the baseline for the tracing overhead; the
// rest to traced calls, each with set-up and run under pprof span
// labels (inherited by the goroutines they start, such as shard
// workers) and a CPU profile. CPU samples from the set-up span are left
// out of the ledger; allocations are counted around the run alone.
func (b *bench) traced(d time.Duration) ([]metric, error) {
	var plain []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d/3; i++ {
		s := b.timedCall()
		if b.check(fmt.Sprintf("untraced call %d", i), s.o) {
			plain = append(plain, s.wall)
		}
	}

	runtime.MemProfileRate = allocSampleRate
	skip := map[string]bool{"setup": true, "sample": true}
	cpuNs := map[string]int64{}
	allocs := map[string]float64{}
	var setupS, runS []float64
	var events int64
	ctx := context.Background()
	start = time.Now()
	for i := 0; i == 0 || time.Since(start) < d*2/3; i++ {
		runtime.GC()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
		t0 := time.Now()
		pprof.Do(ctx, pprof.Labels("span", "setup"), func(context.Context) { b.w.setup(b.seed) })
		setupS = append(setupS, time.Since(t0).Seconds())
		var before map[[32]uintptr][2]int64
		pprof.Do(ctx, pprof.Labels("span", "sample"), func(context.Context) {
			runtime.GC()
			before = memRecords()
		})
		var r raw
		t1 := time.Now()
		pprof.Do(ctx, pprof.Labels("span", "run"), func(context.Context) { r = b.w.run(b.seed) })
		runS = append(runS, time.Since(t1).Seconds())
		pprof.StopCPUProfile()
		runtime.GC()
		after := memRecords()

		o := summarize(r)
		fmt.Fprintf(b.log, "traced call %d: setup %.4fs run %.4fs\n", i, setupS[len(setupS)-1], runS[len(runS)-1])
		if !b.check(fmt.Sprintf("traced call %d", i), o) {
			continue
		}
		f, err := foldCPUProfile(prof.Bytes(), skip)
		if err != nil {
			return nil, err
		}
		for l, ns := range f {
			cpuNs[l] += ns
		}
		for l, n := range foldAllocs(before, after, allocSampleRate) {
			allocs[l] += n
		}
		events += sumTail(o.counters, "netsim/events/executed")
	}
	runtime.MemProfileRate = defaultMemProfileRate

	var total int64
	for _, ns := range cpuNs {
		total += ns
	}
	var ledger []metric
	for _, l := range layers {
		ledger = append(ledger,
			metric{l + ".cpu_share", ratio(cpuNs[l], total), "frac"},
			metric{l + ".ns_per_event", ratio(cpuNs[l], events), "ns"},
			metric{l + ".allocs_per_event", allocs[l] / float64(max(events, 1)), "allocs"},
		)
	}
	ledger = append(ledger,
		metric{"span.setup_s", median(setupS), "s"},
		metric{"span.run_s", median(runS), "s"},
		metric{"trace.overhead_frac", median(runS)/median(plain) - 1, "frac"},
	)
	ledger = append(ledger, workCounts(b.ref.counters, b.ref.series, int64(b.ref.attempted))...)
	return ledger, nil
}

// defaultMemProfileRate is the runtime's own default, restored after
// the traced calls.
var defaultMemProfileRate = runtime.MemProfileRate

// heapSampler polls the heap in use while a call runs and keeps the
// largest value seen.
type heapSampler struct {
	stop chan struct{}
	peak chan uint64
}

// heapSampleEvery is the sampler's period: short against a GC cycle of
// the workloads, long enough that polling costs well under 1% of a CPU.
const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		var peak uint64
		for {
			rtmetrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-tick.C:
			case <-h.stop:
				rtmetrics.Read(s)
				h.peak <- max(peak, s[0].Value.Uint64())
				return
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it to exit and returns the peak.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	return <-h.peak
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // only a bad pointer fails
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// median of a sample; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
