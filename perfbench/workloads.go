package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/overlay"
	"repro/internal/transport/harness"
	"repro/internal/verify"
	"repro/internal/workload"
)

// A workload is one batch call into the program's public entry points.
// Inside the call, traffic follows a schedule drawn from the seed in
// virtual time; the program sees only the generated configuration.
type workloadDef struct {
	name string
	// why records the choice: what the workload loads and what it
	// bypasses, so an optimisation has one workload that exercises it
	// and one where the prediction is no change.
	why string
	// setup builds and converges the world(s) the run call builds, from
	// the same configuration, and releases them.
	setup func(seed int64)
	// run is the timed call. It returns the program's raw results; they
	// are summarised after the clock stops.
	run func(seed int64) raw
	// oracle, when set, is the backend whose results the run must equal.
	oracle func(seed int64) raw
}

// raw is what one call returned.
type raw struct {
	flows *workload.Report
	tiers []*overlay.RunResult
}

var workloads = []workloadDef{
	{
		name: "manyflows",
		why: "E16 10k-flow cell: 10,000 short 1-4 KiB sublayered flows over 8 pairs on the sequential " +
			"simulator. Loads per-connection costs (metrics registration and snapshot, port allocation, " +
			"handshakes, payload generation); bypasses the monolithic stack, the shim codec, loss recovery " +
			"and the sharded engine.",
		setup: func(seed int64) { buildWorld(manyflowsConfig(seed, harness.BackendSim)) },
		run: func(seed int64) raw {
			return raw{flows: workload.Run(manyflowsConfig(seed, harness.BackendSim))}
		},
	},
	{
		name: "manyflows-sharded",
		why: "the identical traffic on sharded:2, the only workload that runs netsim.Sharded (lookahead " +
			"windows, barriers, mailboxes); its simulated outputs must equal manyflows'. Bypasses what " +
			"manyflows bypasses.",
		setup: func(seed int64) { buildWorld(manyflowsConfig(seed, shardedBackend)) },
		run: func(seed int64) raw {
			return raw{flows: workload.Run(manyflowsConfig(seed, shardedBackend))}
		},
		oracle: func(seed int64) raw {
			return raw{flows: workload.Run(manyflowsConfig(seed, harness.BackendSim))}
		},
	},
	{
		name: "bulk",
		why: "8 x 8 MiB flows, sublayered-shim client to monolithic server, across a 4-hop 100 Mb/s " +
			"bottleneck with a 64-packet queue and 0.05% random loss per link (the paper's section 3.1 " +
			"interop setup). Loads the per-packet path: engine, links, forwarding, seg, tcpwire, RD, " +
			"the monolithic input path and retransmission; per-connection and metrics costs are negligible.",
		setup: func(seed int64) { buildWorld(bulkConfig(seed)) },
		run:   func(seed int64) raw { return raw{flows: workload.Run(bulkConfig(seed))} },
	},
	{
		name: "overlay",
		why: "E13's RPC, DHT and gossip tiers on 24 sublayered members under seeded member churn: small " +
			"request/response messages both ways on long-lived connections, dial-on-demand fan-out and " +
			"retries. Loads the overlay, the transport's small-message path and routing reconvergence; " +
			"bypasses bulk transfer, the monolithic stack and per-connection churn at scale.",
		setup: func(seed int64) {
			for range overlay.Tiers() {
				buildCluster(seed)
			}
		},
		run: func(seed int64) raw {
			var r raw
			for _, tier := range overlay.Tiers() {
				r.tiers = append(r.tiers, overlay.Run(overlayConfig(seed, tier)))
			}
			return r
		},
	},
}

// shardedBackend is two shards: at most the two CPUs of the reference
// host, so the windows and barriers run truly in parallel.
const shardedBackend = "sharded:2"

func manyflowsConfig(seed int64, backend string) workload.Config {
	cfg := workload.ScalingConfig(seed, backend, 10_000)
	// The workload engine's default shared path, written out so the
	// set-up call builds the identical world.
	cfg.Link = netsim.LinkConfig{Delay: time.Millisecond, RateBps: 20_000_000, QueueLimit: 256}
	// Per-flow completion times feed the latency percentiles.
	cfg.KeepPerFlow = true
	return cfg
}

func bulkConfig(seed int64) workload.Config {
	return workload.Config{
		Seed: seed, Backend: harness.BackendSim,
		Flows: 8, MinSize: 8 << 20, MaxSize: 8 << 20,
		Client: harness.KindSublayeredShim, Server: harness.KindMonolithic,
		Hops: 4,
		Link: netsim.LinkConfig{Delay: time.Millisecond, RateBps: 100_000_000, QueueLimit: 64, LossProb: 0.0005},
		// All flows arrive within 100 ms and share the bottleneck for the
		// whole transfer, so completion times measure the shared path
		// rather than where the seed placed each arrival.
		Cycles: 1, OnPeriod: 100 * time.Millisecond,
		Budget:      time.Hour,
		KeepPerFlow: true,
	}
}

const overlayNodes = 24

// overlayOps sizes each tier: 70 echo calls per member give 1,680 call
// latencies, enough for a p99 with 16 samples beyond it; 24 keys and
// 24 rumours per member make the DHT and gossip tiers as long as the
// RPC tier.
var overlayOps = map[overlay.Tier]int{overlay.TierRPC: 70, overlay.TierDHT: 24, overlay.TierGossip: 24}

func overlayConfig(seed int64, tier overlay.Tier) overlay.RunConfig {
	return overlay.RunConfig{
		Seed: seed, Backend: harness.BackendSim, Kind: harness.KindSublayeredNative,
		Nodes: overlayNodes, Tier: tier, Scenario: churn(seed), Ops: overlayOps[tier],
		// Ample virtual time: every tier finishes well inside it, so no
		// operation is cut off by the budget.
		Budget: 10 * time.Minute,
	}
}

// churn is E13's churn scenario with its victims drawn from the seed:
// three members leave for 1.5 s each, one at a time, at 2 s, 5 s and
// 8 s. Member 1, the DHT bootstrap, is never a victim. The timing stays
// fixed: it sets how many calls meet a paused member, and with it the
// call-latency tail.
func churn(seed int64) overlay.Scenario {
	victims := rand.New(rand.NewSource(seed)).Perm(overlayNodes - 1)[:3]
	s := faults.Script{Name: "churn"}
	at := 2 * time.Second
	for _, v := range victims {
		s.Steps = append(s.Steps, faults.Step{
			At: at, For: 1500 * time.Millisecond, Fault: faults.RouterPause{Addr: network.Addr(v + 2)},
		})
		at += 3 * time.Second
	}
	return overlay.Scenario{Name: "churn", Heals: true, Build: func(int) faults.Script { return s }}
}

// buildWorld is the set-up the workload engine performs inside Run:
// the same world configuration, with a metrics registry attached.
func buildWorld(cfg workload.Config) {
	w := harness.BuildWorld(harness.WorldConfig{
		Seed: cfg.Seed, Backend: cfg.Backend, Link: cfg.Link, Hops: cfg.Hops,
		Pairs: cfg.Pairs, Client: cfg.Client, Server: cfg.Server,
		Metrics: metrics.New(),
	})
	_ = w.Close() // stops shard workers; cannot fail on the simulator backends
}

// buildCluster is the set-up overlay.Run performs for one tier.
func buildCluster(seed int64) {
	cl := harness.BuildCluster(harness.ClusterConfig{
		Seed: seed, Backend: harness.BackendSim, Nodes: overlayNodes,
		Kind: harness.KindSublayeredNative, Metrics: metrics.New(),
		Contracts: func(network.Addr) *verify.Checker { return verify.NewChecker(verify.ModeRecord) },
	})
	_ = cl.Close() // cannot fail on the simulator backend
}

// outcome is one call's result, summarised outside the timed region.
type outcome struct {
	attempted, completed int
	// mustComplete: every operation must finish (flow workloads). The
	// overlay's churn makes some calls miss by design; they lower
	// completed_frac instead.
	mustComplete bool
	payloadBytes uint64
	// Simulated outcomes, in virtual time.
	latP50, latTail float64 // ms
	tailPct         float64
	goodputMbps     float64
	violations      []string
	counters        map[string]int64
	series          int
}

// summarize folds a call's raw results into an outcome.
func summarize(r raw) outcome {
	o := outcome{counters: map[string]int64{}}
	if rep := r.flows; rep != nil {
		o.attempted, o.completed, o.mustComplete = rep.Flows, rep.Completed, true
		o.payloadBytes = rep.BytesDelivered
		var fcts []time.Duration
		for _, f := range rep.PerFlow {
			if f.Done {
				fcts = append(fcts, f.FCT)
			}
		}
		sort.Slice(fcts, func(i, j int) bool { return fcts[i] < fcts[j] })
		o.latP50 = ms(medianDuration(fcts))
		lat, pct := tail(fcts)
		o.latTail, o.tailPct = ms(lat), pct
		o.goodputMbps = float64(rep.GoodputBps) / 1e6
		o.violations = rep.Violations
		foldSnapshot(rep.Metrics, o.counters)
		o.series = len(rep.Metrics.Samples)
		return o
	}
	var elapsed time.Duration
	for _, t := range r.tiers {
		o.attempted += t.Issued
		o.completed += t.Resolved
		elapsed += t.Elapsed
		for _, v := range t.Violations {
			o.violations = append(o.violations, fmt.Sprintf("%s: %s", t.Tier, v))
		}
		foldSnapshot(t.Snap, o.counters)
		o.series += len(t.Snap.Samples)
		if t.Tier == overlay.TierRPC {
			// overlay.Run reports call latency as p50 and p99; with
			// 1,680 calls p99 is the highest percentile that has at
			// least ten samples beyond it.
			o.latP50, o.latTail, o.tailPct = ms(t.LatP50), ms(t.LatP99), 99
		}
	}
	// Payload the transport handed to the overlay, summed over tiers.
	o.payloadBytes = uint64(sumTail(o.counters, "overlay/bytes_in"))
	if elapsed > 0 {
		o.goodputMbps = float64(o.payloadBytes) * 8 / elapsed.Seconds() / 1e6
	}
	return o
}

// simOutputs is the part of an outcome a pure speed change must leave
// identical: every simulated result and every work count.
func (o outcome) simOutputs() string {
	keys := make([]string, 0, len(o.counters))
	for k := range o.counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := fmt.Sprintf("att=%d done=%d bytes=%d p50=%v tail=%v@%v gp=%v series=%d viol=%d",
		o.attempted, o.completed, o.payloadBytes, o.latP50, o.latTail, o.tailPct,
		o.goodputMbps, o.series, len(o.violations))
	for _, k := range keys {
		s += fmt.Sprintf(" %s=%d", k, o.counters[k])
	}
	return s
}

// medianDuration is the nearest-rank median of an ascending slice.
func medianDuration(sorted []time.Duration) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[(len(sorted)+1)/2-1]
}

// tail returns the sample with exactly ten samples beyond it, the
// highest percentile the sample count supports, and that percentile.
// Below 20 samples no percentile above the median qualifies, and the
// tail is the median.
func tail(sorted []time.Duration) (time.Duration, float64) {
	n := len(sorted)
	if n < 20 {
		return medianDuration(sorted), 50
	}
	return sorted[n-11], 100 * float64(n-10) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
