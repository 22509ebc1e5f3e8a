package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/datalink"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/stuffing"
	"repro/internal/sublayer"
)

// E1DataLink reproduces Fig. 2: the four-sublayer data-link stack over
// a corrupting, lossy link, with each sublayer independently swapped.
// Columns report delivery (must always be 100%), recovery work, and
// the per-variant wire expansion.
func E1DataLink(cfg Config) *Result {
	seed := cfg.Seed
	res := &Result{
		ID:     "E1",
		Title:  "Fig. 2 data-link sublayering: swap any sublayer, same service",
		Header: []string{"variant", "delivered", "retransmits", "crc-rejects", "wire-bytes/pkt"},
	}
	type variant struct {
		name string
		cfg  func() datalink.StackConfig
	}
	variants := []variant{
		{"default (gbn+crc32+hdlc+nrz)", func() datalink.StackConfig { return datalink.StackConfig{} }},
		{"arq=stop-and-wait", func() datalink.StackConfig {
			return datalink.StackConfig{ARQ: datalink.NewStopAndWait(datalink.ARQConfig{RTO: 30 * time.Millisecond})}
		}},
		{"arq=selective-repeat", func() datalink.StackConfig {
			return datalink.StackConfig{ARQ: datalink.NewSelectiveRepeat(datalink.ARQConfig{})}
		}},
		{"checksum=crc64 (the paper's example)", func() datalink.StackConfig { return datalink.StackConfig{Checksum: datalink.CRC64{}} }},
		{"checksum=crc16", func() datalink.StackConfig { return datalink.StackConfig{Checksum: datalink.CRC16{}} }},
		{"checksum=fletcher16", func() datalink.StackConfig { return datalink.StackConfig{Checksum: datalink.Fletcher16{}} }},
		{"framer=low-overhead-rule", func() datalink.StackConfig {
			return datalink.StackConfig{Framer: datalink.NewBitStuffFramer(stuffing.LowOverhead())}
		}},
		{"framer=bytestuff", func() datalink.StackConfig { return datalink.StackConfig{Framer: datalink.ByteStuffFramer{}} }},
		{"framer=nested(stuff/flag)", func() datalink.StackConfig {
			return datalink.StackConfig{Framer: datalink.NewNestedFramer(stuffing.HDLC())}
		}},
		{"framer=lengthprefix", func() datalink.StackConfig { return datalink.StackConfig{Framer: datalink.LengthPrefixFramer{}} }},
		{"code=manchester", func() datalink.StackConfig { return datalink.StackConfig{Code: datalink.Manchester{}} }},
		{"code=nrzi", func() datalink.StackConfig { return datalink.StackConfig{Code: datalink.NRZI{}} }},
	}
	const packets = 40
	for vi, v := range variants {
		reg := metrics.New()
		sim := netsim.NewSimulator(seed, reg)
		a, _ := datalink.NewStack(sim, "A", v.cfg())
		b, _ := datalink.NewStack(sim, "B", v.cfg())
		a.BindMetrics(reg.Scope("A").Sub("datalink"))
		b.BindMetrics(reg.Scope("B").Sub("datalink"))
		delivered := 0
		var wireBytes, wirePkts uint64
		b.SetApp(func(p *sublayer.PDU) { delivered++ })
		a.SetApp(func(p *sublayer.PDU) {})
		d := datalink.Connect(sim, a, b, netsim.LinkConfig{
			Delay: 2 * time.Millisecond, LossProb: 0.1, CorruptProb: 0.05, DupProb: 0.02,
		})
		_ = d
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < packets; i++ {
			pkt := make([]byte, 64)
			rng.Read(pkt)
			a.Send(sublayer.NewPDU(pkt))
		}
		sim.RunFor(3 * time.Minute)
		bounds := a.Boundaries()
		wire := bounds[len(bounds)-1]
		wireBytes, wirePkts = wire.DownBytes, wire.Down
		var rexmit, crcFail uint64
		for _, l := range a.Layers() {
			if _, isED := l.(*datalink.ErrDetect); isED {
				continue
			}
			if s, ok := l.(interface{ Stats() metrics.View }); ok {
				rexmit = s.Stats().Get("retransmits")
				break
			}
		}
		for _, l := range b.Layers() {
			if ed, ok := l.(*datalink.ErrDetect); ok {
				crcFail = ed.Stats().Get("failed")
			}
		}
		perPkt := "-"
		if wirePkts > 0 {
			perPkt = fmt.Sprintf("%.1f", float64(wireBytes)/float64(wirePkts))
		}
		res.Rows = append(res.Rows, []string{
			v.name,
			fmt.Sprintf("%d/%d", delivered, packets),
			fmt.Sprintf("%d", rexmit),
			fmt.Sprintf("%d", crcFail),
			perPkt,
		})
		res.Metrics = metrics.Merge(res.Metrics, reg.Snapshot().WithPrefix(fmt.Sprintf("v%02d", vi)))
	}
	res.Notes = append(res.Notes,
		"every variant delivers all packets in order over 10% loss + 5% corruption: sublayers replace freely (T3)",
		"wire-bytes/pkt shows each sublayer's header cost (Fig. 2 right side): Manchester doubles symbols, bit-stuff framers add stuff bits")
	return res
}

// E2Routing reproduces Figs. 3–4: distance vector and link state reach
// the same shortest paths on random graphs, reconverge after failures,
// and swap live under an untouched forwarding plane.
func E2Routing(cfg Config) *Result {
	seed := cfg.Seed
	res := &Result{
		ID:     "E2",
		Title:  "Figs. 3–4 network sublayering: route computation is fungible",
		Header: []string{"scenario", "graph", "dv=ref", "ls=ref", "dv-adverts", "ls-lsps"},
	}
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 3; trial++ {
		n := 6 + trial*3
		edges := network.RandomConnectedGraph(rng, n, 4, 3)
		ref := network.ReferenceDistances(edges)

		check := func(alg string, mk func() network.RouteComputer) (bool, uint64) {
			reg := metrics.New()
			sim := netsim.NewSimulator(seed+int64(trial), reg)
			topo := network.BuildTopology(sim, edges,
				netsim.LinkConfig{Delay: time.Millisecond},
				network.NeighborConfig{HelloInterval: 200 * time.Millisecond}, mk)
			topo.BindMetrics(reg)
			sim.RunFor(15 * time.Second)
			ok := true
			var control uint64
			for a, r := range topo.Routers {
				routes := r.Computer().Routes()
				for b := range topo.Routers {
					if got, have := routes[b], ref[a][b]; !have2(routes, b) || got.Metric != have {
						ok = false
					}
				}
				switch c := r.Computer().(type) {
				case *network.DistanceVector:
					v := c.Stats()
					control += v.Get("adverts_sent") + v.Get("triggered_sent")
				case *network.LinkState:
					control += c.Stats().Get("lsps_flooded")
				}
			}
			res.Metrics = metrics.Merge(res.Metrics,
				reg.Snapshot().WithPrefix(fmt.Sprintf("trial%d/%s", trial, alg)))
			return ok, control
		}
		dvOK, dvMsgs := check("dv", func() network.RouteComputer {
			return network.NewDistanceVector(network.DVConfig{AdvertiseInterval: 500 * time.Millisecond})
		})
		lsOK, lsMsgs := check("ls", func() network.RouteComputer {
			return network.NewLinkState(network.LSConfig{RefreshInterval: 2 * time.Second})
		})
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("random-%d", trial),
			fmt.Sprintf("%d nodes, %d edges", n, len(edges)),
			fmt.Sprintf("%v", dvOK), fmt.Sprintf("%v", lsOK),
			fmt.Sprintf("%d", dvMsgs), fmt.Sprintf("%d", lsMsgs),
		})
	}
	// Live swap scenario.
	sim := netsim.NewSimulator(seed, nil)
	edges := []network.Edge{{A: 1, B: 2, Cost: 1}, {A: 2, B: 3, Cost: 1}, {A: 3, B: 4, Cost: 1}}
	topo := network.BuildTopology(sim, edges, netsim.LinkConfig{Delay: time.Millisecond},
		network.NeighborConfig{HelloInterval: 200 * time.Millisecond},
		func() network.RouteComputer {
			return network.NewDistanceVector(network.DVConfig{AdvertiseInterval: 500 * time.Millisecond})
		})
	sim.RunFor(8 * time.Second)
	fwd := topo.Routers[1].Forwarder()
	before := len(topo.Routers[1].Computer().Routes())
	for _, r := range topo.Routers {
		r.SwapComputer(network.NewLinkState(network.LSConfig{RefreshInterval: 2 * time.Second}))
	}
	sim.RunFor(10 * time.Second)
	after := len(topo.Routers[1].Computer().Routes())
	samePlane := fwd == topo.Routers[1].Forwarder()
	res.Rows = append(res.Rows, []string{
		"live swap dv→ls",
		"line-4",
		fmt.Sprintf("routes %d→%d", before, after),
		fmt.Sprintf("fwd-plane-unchanged=%v", samePlane),
		"-", "-",
	})
	// Reconvergence timing: square topology, cut the primary link,
	// measure virtual time until the detour route is installed.
	for _, alg := range []string{"dv", "ls"} {
		simR := netsim.NewSimulator(seed+99, nil)
		sq := []network.Edge{{A: 1, B: 2, Cost: 1}, {A: 2, B: 4, Cost: 1}, {A: 1, B: 3, Cost: 2}, {A: 3, B: 4, Cost: 2}}
		mk := func() network.RouteComputer {
			if alg == "dv" {
				return network.NewDistanceVector(network.DVConfig{AdvertiseInterval: 500 * time.Millisecond})
			}
			return network.NewLinkState(network.LSConfig{RefreshInterval: 2 * time.Second})
		}
		topoR := network.BuildTopology(simR, sq,
			netsim.LinkConfig{Delay: time.Millisecond},
			network.NeighborConfig{HelloInterval: 200 * time.Millisecond}, mk)
		simR.RunFor(10 * time.Second)
		topoR.CutLink(2, 4)
		cutAt := simR.Now()
		reconverged := netsim.Time(0)
		for i := 0; i < 60_000 && reconverged == 0; i++ {
			if !simR.Step() {
				break
			}
			if r, ok := topoR.Routers[1].Computer().Routes()[4]; ok && r.Metric == 4 {
				reconverged = simR.Now()
			}
		}
		val := "did not reconverge"
		if reconverged > 0 {
			val = time.Duration(reconverged - cutAt).Truncate(time.Millisecond).String()
		}
		res.Rows = append(res.Rows, []string{
			"reconverge-after-cut", "square-4 (" + alg + ")", val, "-", "-", "-",
		})
	}
	res.Notes = append(res.Notes,
		"both computers converge to Floyd–Warshall ground truth on every random graph",
		"swapping DV→LS live keeps the forwarding object untouched — 'one can change route computation ... without changing forwarding'",
		"reconvergence after a link cut is bounded by neighbor hold time plus one protocol round for both algorithms")
	return res
}

func have2(routes map[network.Addr]network.Route, b network.Addr) bool {
	_, ok := routes[b]
	return ok
}
