package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/tcpwire"
	"repro/internal/transport"
	"repro/internal/transport/sublayered"
)

// crossingValues maps the exported crossings series to the
// per-connection CrossingStats fields they total.
var crossingValues = map[string]func(x sublayered.Crossings) uint64{
	"app_to_osr":    func(x sublayered.Crossings) uint64 { return x.AppToOSR.Value() },
	"app_bytes":     func(x sublayered.Crossings) uint64 { return x.AppBytes.Value() },
	"osr_to_rd":     func(x sublayered.Crossings) uint64 { return x.OSRToRD.Value() },
	"osr_bytes":     func(x sublayered.Crossings) uint64 { return x.OSRBytes.Value() },
	"rd_to_osr_ack": func(x sublayered.Crossings) uint64 { return x.RDToOSRAck.Value() },
	"rd_to_osr_dat": func(x sublayered.Crossings) uint64 { return x.RDToOSRDat.Value() },
	"rd_to_osr_los": func(x sublayered.Crossings) uint64 { return x.RDToOSRLos.Value() },
	"cm_to_rd":      func(x sublayered.Crossings) uint64 { return x.CMToRD.Value() },
	"to_dm":         func(x sublayered.Crossings) uint64 { return x.ToDM.Value() },
	"from_dm":       func(x sublayered.Crossings) uint64 { return x.FromDM.Value() },
}

// connSum adds up the per-connection values behind every exported
// stack total: "<group>/<name>" for the counters, and the RTT sample
// count that the stack's "rd/rtt_ms" histogram must hold.
func connSum(conns []*sublayered.Conn) (map[string]uint64, uint64) {
	sum := map[string]uint64{}
	var rtt uint64
	for _, c := range conns {
		for name, v := range c.RD().Stats() {
			if name == "rtt_samples" {
				rtt += v
				continue
			}
			sum["rd/"+name] += v
		}
		for name, v := range c.OSR().Stats() {
			sum["osr/"+name] += v
		}
		for name, v := range c.CM().(*sublayered.HandshakeCM).Stats() {
			sum["cm/"+name] += v
		}
		for name, get := range crossingValues {
			sum["crossings/"+name] += get(c.CrossingStats())
		}
	}
	return sum, rtt
}

// TestStackTotalsEqualConnectionSums checks the bounded-cardinality
// contract: each stack exports one series per connection counter, and
// each series equals the sum of that counter over every connection the
// stack has had — those still open at snapshot time, those already
// destroyed, and a passive open the connection manager rejected.
func TestStackTotalsEqualConnectionSums(t *testing.T) {
	for _, backend := range []string{BackendSim, "sharded:2"} {
		t.Run(backend, func(t *testing.T) {
			reg := metrics.New()
			w := New(backend,
				WithSeed(9),
				WithPairs(2),
				WithLink(lossyLink),
				WithStacks(KindSublayeredNative, KindSublayeredNative),
				WithTransport(transport.WithRegistry(reg)),
			)
			defer w.Close()

			// Each host's callbacks run on its own shard, so each host
			// counts its own closures.
			type host struct {
				addr   network.Addr
				conns  []*sublayered.Conn
				closed int
			}
			var hosts []*host
			var clients []*sublayered.Conn
			for _, end := range w.Ends {
				cli := &host{addr: end.ClientAddr}
				srv := &host{addr: end.ServerAddr}
				hosts = append(hosts, cli, srv)
				l, err := end.Server.(*Sublayered).Stack.Listen(80)
				if err != nil {
					t.Fatal(err)
				}
				l.OnAccept = func(c *sublayered.Conn) {
					srv.conns = append(srv.conns, c)
					c.Write(make([]byte, 2000))
					c.OnReadable = func() {
						c.ReadAll()
						if c.EOF() {
							c.Close()
						}
					}
					c.OnClosed = func(error) { srv.closed++ }
				}
				// Three flows per pair: one closes cleanly and outlives
				// TIME_WAIT, one is aborted, and one stays open.
				for i := 0; i < 3; i++ {
					c, err := end.Client.(*Sublayered).Stack.Dial(end.ServerAddr, 80)
					if err != nil {
						t.Fatal(err)
					}
					c.OnClosed = func(error) { cli.closed++ }
					c.Write(make([]byte, 3000*(i+1)))
					cli.conns = append(cli.conns, c)
					clients = append(clients, c)
				}
				// A non-SYN first segment to the listener: the handshake
				// manager rejects the passive open.
				h := tcpwire.SubHeader{
					DM: tcpwire.DMSection{SrcPort: 40000, DstPort: 80},
					RD: tcpwire.RDSection{Seq: 1, Ack: 1, AckValid: true},
				}
				buf := make([]byte, h.WireLen(0))
				h.MarshalTo(buf, nil)
				if err := w.Topo.Routers[end.ClientAddr].Send(end.ServerAddr, network.ProtoSubTCP, buf); err != nil {
					t.Fatal(err)
				}
			}
			w.Sim.RunFor(2 * time.Second)
			var early metrics.Snapshot
			w.Exec(func() { early = reg.Snapshot() })
			for _, end := range w.Ends {
				prefix := fmt.Sprintf("n%d/transport/dm/", end.ServerAddr)
				if v := early.Value(prefix + "new_passive"); v != 3 {
					t.Errorf("%snew_passive = %d, want 3: the rejected open is not accepted", prefix, v)
				}
				if v := early.Value(prefix + "no_listener"); v != 0 {
					t.Errorf("%sno_listener = %d, want 0: the rejected open reached the listener", prefix, v)
				}
			}
			for i, c := range clients {
				switch i % 3 {
				case 0:
					c.Close()
				case 1:
					c.Abort()
				}
			}
			w.Sim.RunFor(30 * time.Second)

			var snap metrics.Snapshot
			w.Exec(func() { snap = reg.Snapshot() })
			total, closed := 0, 0
			for _, hs := range hosts {
				total += len(hs.conns)
				closed += hs.closed
			}
			if total != 6*len(w.Ends) || closed != 4*len(w.Ends) {
				t.Fatalf("want %d connections, %d destroyed; got %d, %d destroyed",
					6*len(w.Ends), 4*len(w.Ends), total, closed)
			}

			for _, hs := range hosts {
				prefix := fmt.Sprintf("n%d/transport/", hs.addr)
				want, rtt := connSum(hs.conns)
				checked := 0
				for _, s := range snap.Samples {
					name, ok := strings.CutPrefix(s.Name, prefix)
					if !ok || strings.HasPrefix(name, "dm/") {
						continue
					}
					if name == "rd/rtt_ms" {
						if uint64(s.Value) != rtt {
							t.Errorf("%s: %d RTT samples, connections took %d", s.Name, s.Value, rtt)
						}
						continue
					}
					if got := uint64(s.Value); got != want[name] {
						t.Errorf("%s = %d, connections sum to %d", s.Name, got, want[name])
					}
					checked++
				}
				if checked != len(want) {
					t.Errorf("%s: %d connection series, want %d", prefix, checked, len(want))
				}
				if want["rd/segments_sent"] == 0 || rtt == 0 {
					t.Errorf("%s: no traffic counted", prefix)
				}
			}
		})
	}
}
