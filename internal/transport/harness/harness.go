// Package harness adapts the two TCP implementations — sublayered
// (internal/transport/sublayered, optionally behind the §3.1 shim) and
// monolithic (internal/transport/monolithic) — behind the uniform
// transport.Stack / transport.Conn interfaces, so the interop matrix
// (E4), the performance comparison (E7), the chaos soak (E10), the
// many-flow workload engine (E11) and the examples can drive either
// implementation with the same code.
package harness

import (
	"fmt"
	"time"

	"repro/internal/backends"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/transport"
	"repro/internal/transport/monolithic"
	"repro/internal/transport/sublayered"
	"repro/internal/verify"
)

// Both connection types are transport.Conns themselves; only the
// stacks need adapters, for Name and the Listen/Dial signatures.
var (
	_ transport.Conn  = (*sublayered.Conn)(nil)
	_ transport.Conn  = (*monolithic.PCB)(nil)
	_ transport.Stack = (*Sublayered)(nil)
	_ transport.Stack = (*Monolithic)(nil)
)

// --- sublayered adapter ---

// Sublayered wraps a sublayered stack as a transport.Stack.
type Sublayered struct {
	Stack *sublayered.Stack
	label string
}

// newSublayered attaches a sublayered transport to a router. Callers
// go through the single construction path BuildWorld (or
// BuildCluster).
func newSublayered(sim netsim.Backend, r *network.Router, cfg sublayered.Config) *Sublayered {
	label := "sublayered"
	if cfg.UseShim {
		label = "sublayered+shim"
	}
	return &Sublayered{Stack: sublayered.NewStack(sim, r, cfg), label: label}
}

// Name implements transport.Stack.
func (t *Sublayered) Name() string { return t.label }

// Listen implements transport.Stack.
func (t *Sublayered) Listen(port uint16, onAccept func(transport.Conn)) error {
	l, err := t.Stack.Listen(port)
	if err != nil {
		return err
	}
	l.OnAccept = func(c *sublayered.Conn) { onAccept(c) }
	return nil
}

// Dial implements transport.Stack.
func (t *Sublayered) Dial(dst network.Addr, port uint16) (transport.Conn, error) {
	c, err := t.Stack.Dial(dst, port)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Addr implements transport.Stack.
func (t *Sublayered) Addr() network.Addr { return t.Stack.Addr() }

// Close implements transport.Stack.
func (t *Sublayered) Close() error { return t.Stack.Close() }

// --- monolithic adapter ---

// Monolithic wraps a monolithic stack as a transport.Stack.
type Monolithic struct {
	Stack *monolithic.Stack
}

// newMonolithic attaches a monolithic transport to a router, like
// newSublayered.
func newMonolithic(sim netsim.Backend, r *network.Router, cfg monolithic.Config) *Monolithic {
	return &Monolithic{Stack: monolithic.NewStack(sim, r, cfg)}
}

// Name implements transport.Stack.
func (t *Monolithic) Name() string { return "monolithic" }

// Listen implements transport.Stack.
func (t *Monolithic) Listen(port uint16, onAccept func(transport.Conn)) error {
	l, err := t.Stack.Listen(port)
	if err != nil {
		return err
	}
	l.OnAccept = func(p *monolithic.PCB) { onAccept(p) }
	return nil
}

// Dial implements transport.Stack.
func (t *Monolithic) Dial(dst network.Addr, port uint16) (transport.Conn, error) {
	p, err := t.Stack.Dial(dst, port)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Addr implements transport.Stack.
func (t *Monolithic) Addr() network.Addr { return t.Stack.Addr() }

// Close implements transport.Stack.
func (t *Monolithic) Close() error { return t.Stack.Close() }

// --- world construction ---

// Kind selects a transport implementation for BuildWorld.
type Kind int

// Transport kinds.
const (
	// KindSublayeredNative uses the Fig. 6 wire format.
	KindSublayeredNative Kind = iota
	// KindSublayeredShim uses RFC 793 wire format through the shim.
	KindSublayeredShim
	// KindMonolithic is the lwIP-style baseline.
	KindMonolithic
)

func (k Kind) String() string {
	switch k {
	case KindSublayeredNative:
		return "sublayered"
	case KindSublayeredShim:
		return "sublayered+shim"
	default:
		return "monolithic"
	}
}

// World is a network — simulated or real-time — with one transport per
// end host.
type World struct {
	// Sim is the substrate backend. The historical field name survives
	// from when it could only be a *netsim.Simulator; every driver-side
	// use (RunFor, Schedule, Now, SetTracer, Steps) is in the Backend
	// interface.
	Sim    netsim.Backend
	Topo   *network.Topology
	Client transport.Stack
	Server transport.Stack
	// ClientB and ServerB are the end hosts' node backends: on a
	// sharded engine the per-node shard views, otherwise Sim. Driver
	// code reading a host's clock (flow completion stamps) must use the
	// host's backend so the reading reflects that shard's progress.
	ClientB netsim.Backend
	ServerB netsim.Backend
	// Ends lists every client/server pair. Single-pair worlds (the
	// default) have exactly one entry, aliased by Client/Server; the
	// E16 scaling matrices build WorldConfig.Pairs disjoint lines.
	Ends []End
	// Backend is the kind the world was built on ("sim", "sharded",
	// "chan", "udp").
	Backend string
}

// End is one client/server pair: transports, their node backends and
// addresses.
type End struct {
	Client, Server         transport.Stack
	ClientB, ServerB       netsim.Backend
	ClientAddr, ServerAddr network.Addr
}

// Exec runs fn holding the backend lock — how driver code outside a
// protocol callback touches connections, flows or metrics. Inline on
// the simulator.
func (w *World) Exec(fn func()) { w.Sim.Exec(fn) }

// Realtime reports whether the world runs on the wall clock.
func (w *World) Realtime() bool { return Realtime(w.Backend) }

// Close releases the backend (goroutines, sockets). A no-op on the
// simulator, so drivers can defer it unconditionally.
func (w *World) Close() error { return w.Sim.Close() }

// WorldConfig tunes BuildWorld.
type WorldConfig struct {
	Seed int64
	// Backend selects the substrate: "sim" (default — the
	// deterministic discrete-event simulator), "chan" (in-process
	// channel network on the wall clock) or "udp" (loopback UDP
	// sockets). The determinism gates only hold on "sim".
	Backend string
	Link    netsim.LinkConfig
	Hops    int // routers on the path, ≥ 2 (the two hosts); default 4
	// Pairs builds that many disjoint client/server line topologies in
	// one world (default 1) — the E16 many-flow scaling shape, where a
	// sharded backend spreads the pairs across shards. Simulator
	// backends only.
	Pairs   int
	Client  Kind
	Server  Kind
	Tracker *verify.Tracker // attached to both transports (E6)
	// SubCfg and MonoCfg configure the end hosts' stacks by Kind.
	// BuildWorld sets their Metrics and Tracker per host from the
	// fields of the same name here; values set inside them are
	// ignored.
	SubCfg  sublayered.Config
	MonoCfg monolithic.Config
	// Metrics, when non-nil, adopts every instrument in the world: the
	// backend and links under "netsim/...", each router under
	// "n<addr>/network/..." and each end host's transport under
	// "n<addr>/transport/...". The layout is identical on every
	// backend.
	Metrics *metrics.Registry
}

// BuildWorld constructs a line topology 1–…–N with transports on the
// end hosts on the selected backend, and runs the control plane to
// convergence (virtually on the simulator, by polling the FIBs on the
// real-time backends).
func BuildWorld(cfg WorldConfig) *World {
	if cfg.Hops < 2 {
		cfg.Hops = 4
	}
	b, err := backends.New(cfg.Backend, cfg.Seed, cfg.Metrics)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	rt := Realtime(cfg.Backend)
	// The simulator keeps its historical control-plane cadence (the
	// determinism gate depends on it); the real-time backends use a
	// faster one so convergence costs tens of wall milliseconds, not
	// seconds.
	ncfg := network.NeighborConfig{HelloInterval: 200 * time.Millisecond}
	dvInterval := 500 * time.Millisecond
	if rt {
		ncfg.HelloInterval = 50 * time.Millisecond
		dvInterval = 100 * time.Millisecond
	}
	pairs := cfg.Pairs
	if pairs < 1 {
		pairs = 1
	}
	if pairs > 1 && rt {
		panic("harness: multi-pair worlds require a simulator backend")
	}
	// Pair p occupies addresses p*Hops+1 … (p+1)*Hops, a disjoint line;
	// on a sharded engine contiguous address blocks land on contiguous
	// shard blocks, so aligned pair counts shard with no cut links.
	var edges []network.Edge
	for p := 0; p < pairs; p++ {
		base := p * cfg.Hops
		for i := 1; i < cfg.Hops; i++ {
			edges = append(edges, network.Edge{A: network.Addr(base + i), B: network.Addr(base + i + 1), Cost: 1})
		}
	}
	w := &World{Sim: b, Backend: cfg.Backend}
	// Construction arms timers whose firings (on a real-time backend)
	// race the remaining wiring, so the whole build runs under the
	// backend lock.
	b.Exec(func() {
		w.Topo = network.BuildTopology(b, edges, cfg.Link, ncfg,
			func() network.RouteComputer {
				return network.NewDistanceVector(network.DVConfig{AdvertiseInterval: dvInterval})
			})
		if cfg.Metrics != nil {
			w.Topo.BindMetrics(cfg.Metrics)
		}
		for p := 0; p < pairs; p++ {
			ca := network.Addr(p*cfg.Hops + 1)
			sa := network.Addr((p + 1) * cfg.Hops)
			cb, sb := w.Topo.Backend(ca), w.Topo.Backend(sa)
			// Each stack gets its own tracker session: the two ends may
			// execute concurrently on different shards, and the
			// current-handler scope must not cross-contaminate.
			cl := buildTransport(cfg.Client, cb, w.Topo.Routers[ca], cfg, hostScope(cfg.Metrics, int(ca)), cfg.Tracker.Session())
			sv := buildTransport(cfg.Server, sb, w.Topo.Routers[sa], cfg, hostScope(cfg.Metrics, int(sa)), cfg.Tracker.Session())
			w.Ends = append(w.Ends, End{Client: cl, Server: sv, ClientB: cb, ServerB: sb, ClientAddr: ca, ServerAddr: sa})
		}
		w.Client, w.Server = w.Ends[0].Client, w.Ends[0].Server
		w.ClientB, w.ServerB = w.Ends[0].ClientB, w.Ends[0].ServerB
	})
	if rt {
		waitConverged(w, 10*time.Second)
	} else {
		b.RunFor(5 * time.Second)
	}
	return w
}

// waitConverged polls until every router has a route to both end
// hosts (or the wall budget runs out — data traffic then surfaces the
// failure as no_route drops, which is more debuggable than hanging).
func waitConverged(w *World, budget time.Duration) {
	client, server := network.Addr(1), w.ServerAddr()
	deadline := time.Now().Add(budget)
	for {
		ok := true
		w.Exec(func() {
			for addr, r := range w.Topo.Routers {
				if addr != client {
					if _, found := r.Forwarder().Lookup(client); !found {
						ok = false
						return
					}
				}
				if addr != server {
					if _, found := r.Forwarder().Lookup(server); !found {
						ok = false
						return
					}
				}
			}
		})
		if ok || time.Now().After(deadline) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// hostScope names a host's transport subtree, or nil without a
// registry (nil scopes are inert).
func hostScope(reg *metrics.Registry, addr int) *metrics.Scope {
	if reg == nil {
		return nil
	}
	return reg.Scope(fmt.Sprintf("n%d", addr)).Sub("transport")
}

func buildTransport(k Kind, sim netsim.Backend, r *network.Router, cfg WorldConfig, msc *metrics.Scope, tracker *verify.Tracker) transport.Stack {
	switch k {
	case KindMonolithic:
		mc := cfg.MonoCfg
		mc.Tracker = tracker
		mc.Metrics = msc
		return newMonolithic(sim, r, mc)
	case KindSublayeredShim:
		sc := cfg.SubCfg
		sc.UseShim = true
		sc.Tracker = tracker
		sc.Metrics = msc
		return newSublayered(sim, r, sc)
	default:
		sc := cfg.SubCfg
		sc.Tracker = tracker
		sc.Metrics = msc
		return newSublayered(sim, r, sc)
	}
}

// ServerAddr returns the primary pair's server address (the far end
// host of a single-pair world).
func (w *World) ServerAddr() network.Addr {
	if len(w.Ends) > 0 {
		return w.Ends[0].ServerAddr
	}
	var maxAddr network.Addr
	for a := range w.Topo.Routers {
		if a > maxAddr {
			maxAddr = a
		}
	}
	return maxAddr
}

// TransferResult is what RunTransfer observed.
type TransferResult struct {
	ServerGot, ClientGot []byte
	ServerEOF, ClientEOF bool
	ClientErr, ServerErr error
	ClientConn           transport.Conn
	ServerConn           transport.Conn
	Elapsed              time.Duration // virtual time from dial to both EOFs
}

// RunTransfer sends c2s from client to server and s2c back, closing
// each direction after its data, and runs the network for at most
// budget: virtual time on the simulator (one uninterrupted RunFor, so
// the executed-event count — and with it the determinism gate — is
// unchanged), wall-clock time on the real-time backends (polling the
// EOF flags under the backend lock).
func RunTransfer(w *World, c2s, s2c []byte, budget time.Duration) (*TransferResult, error) {
	res := &TransferResult{}
	var setupErr error
	var start netsim.Time
	var done [2]bool
	var finish [2]netsim.Time
	// Completion stamps read the finishing host's clock: the callbacks
	// run in protocol context, where only that node's shard clock is
	// coherent. Index 0 is only ever written on the server's shard and
	// index 1 on the client's (single-writer rule).
	clientB, serverB := w.ClientB, w.ServerB
	if clientB == nil {
		clientB = w.Sim
	}
	if serverB == nil {
		serverB = w.Sim
	}
	w.Exec(func() {
		start = w.Sim.Now()
		markDone := func(i int, b netsim.Backend) {
			if !done[i] {
				done[i] = true
				finish[i] = b.Now()
			}
		}
		if err := w.Server.Listen(80, func(sc transport.Conn) {
			res.ServerConn = sc
			toSend := s2c
			push := func() {
				for len(toSend) > 0 {
					n := sc.Write(toSend)
					if n == 0 {
						break
					}
					toSend = toSend[n:]
				}
				if len(toSend) == 0 {
					sc.Close()
				}
			}
			sc.Callbacks(push, func() {
				res.ServerGot = append(res.ServerGot, sc.ReadAll()...)
				if sc.EOF() {
					res.ServerEOF = true
					markDone(0, serverB)
				}
			}, push, func(err error) { res.ServerErr = err })
		}); err != nil {
			setupErr = err
			return
		}
		cc, err := w.Client.Dial(w.ServerAddr(), 80)
		if err != nil {
			setupErr = err
			return
		}
		res.ClientConn = cc
		toSend := c2s
		push := func() {
			for len(toSend) > 0 {
				n := cc.Write(toSend)
				if n == 0 {
					break
				}
				toSend = toSend[n:]
			}
			if len(toSend) == 0 {
				cc.Close()
			}
		}
		cc.Callbacks(push, func() {
			res.ClientGot = append(res.ClientGot, cc.ReadAll()...)
			if cc.EOF() {
				res.ClientEOF = true
				markDone(1, clientB)
			}
		}, push, func(err error) { res.ClientErr = err })
	})
	if setupErr != nil {
		return nil, setupErr
	}

	if w.Realtime() {
		deadline := time.Now().Add(budget)
		for {
			settled := false
			w.Exec(func() { settled = done[0] && done[1] })
			if settled || time.Now().After(deadline) {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	} else {
		w.Sim.RunFor(budget)
	}
	w.Exec(func() {
		end := finish[0]
		if finish[1] > end {
			end = finish[1]
		}
		if end > start {
			res.Elapsed = time.Duration(end - start)
		} else {
			res.Elapsed = time.Duration(w.Sim.Now() - start)
		}
	})
	return res, nil
}

// Describe renders a world for reports.
func (w *World) Describe() string {
	return fmt.Sprintf("client=%s server=%s hops=%d", w.Client.Name(), w.Server.Name(), len(w.Topo.Routers))
}
