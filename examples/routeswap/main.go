// Routeswap: the paper's Fig. 3–4 fungibility claim, live. A network
// converges under distance-vector routing; we then swap every router's
// route-computation sublayer to link state while the forwarding plane
// keeps running — "one can change say route computation from distance
// vector to Link State without changing forwarding."
package main

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/network"
)

func main() {
	sim := netsim.NewSimulator(3, nil)
	// A ring of six routers with one shortcut.
	edges := []network.Edge{
		{A: 1, B: 2, Cost: 1}, {A: 2, B: 3, Cost: 1}, {A: 3, B: 4, Cost: 1},
		{A: 4, B: 5, Cost: 1}, {A: 5, B: 6, Cost: 1}, {A: 6, B: 1, Cost: 1},
		{A: 2, B: 5, Cost: 1},
	}
	topo := network.BuildTopology(sim, edges,
		netsim.LinkConfig{Delay: time.Millisecond},
		network.NeighborConfig{HelloInterval: 200 * time.Millisecond},
		func() network.RouteComputer {
			return network.NewDistanceVector(network.DVConfig{AdvertiseInterval: 500 * time.Millisecond})
		})
	sim.RunFor(10 * time.Second)

	r1 := topo.Routers[1]
	fwd := r1.Forwarder() // the data plane object; must survive the swap
	fmt.Printf("converged under %s:\n%s\n", r1.Computer().Name(),
		network.FormatRoutes(r1.Computer().Routes()))

	// Prove the data plane works, then swap live.
	delivered := 0
	topo.Routers[4].Handle(network.ProtoUDP, func(dg *network.Datagram) { delivered++ })
	_ = r1.Send(4, network.ProtoUDP, []byte("before swap"))
	sim.RunFor(time.Second)

	fmt.Println("swapping every router to link state, live...")
	for _, r := range topo.Routers {
		r.SwapComputer(network.NewLinkState(network.LSConfig{RefreshInterval: 2 * time.Second}))
	}
	sim.RunFor(10 * time.Second)

	fmt.Printf("converged under %s:\n%s\n", r1.Computer().Name(),
		network.FormatRoutes(r1.Computer().Routes()))
	_ = r1.Send(4, network.ProtoUDP, []byte("after swap"))
	sim.RunFor(time.Second)

	fmt.Printf("datagrams delivered across the swap: %d of 2\n", delivered)
	fmt.Printf("forwarding plane object unchanged: %v\n", fwd == r1.Forwarder())

	// And the new computer reconverges around failures just the same.
	fmt.Println("\ncutting link 2–5 (the shortcut)...")
	topo.CutLink(2, 5)
	sim.RunFor(10 * time.Second)
	fmt.Printf("routes at n1 after failure:\n%s", network.FormatRoutes(r1.Computer().Routes()))
}
