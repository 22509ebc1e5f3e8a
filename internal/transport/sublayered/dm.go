package sublayered

import (
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/ccontrol"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/tcpwire"
	"repro/internal/transport/seg"
	"repro/internal/verify"
)

// Config assembles a sublayered transport stack. Every sublayer
// implementation is independently selectable — the fungibility the
// paper's T3 promises and experiment E8 measures.
type Config struct {
	// MSS is the maximum segment payload (default 1000).
	MSS int
	// SendBuf / RecvBuf are per-connection buffer sizes (default 64 KiB).
	SendBuf, RecvBuf int
	// CC selects the congestion controller by ccontrol registry name
	// ("newreno", "cubic", "bbrlite", ...; default ccontrol.DefaultName).
	// Ignored when NewCC is set. Unknown names panic at NewStack.
	CC string
	// NewCC constructs the congestion controller per connection,
	// overriding CC (default: resolve CC through the registry).
	NewCC func(mss int) CongestionControl
	// NewCM constructs the connection manager per connection (default
	// three-way handshake with RFC 1948 crypto ISNs).
	NewCM func() ConnManager
	// UseShim selects RFC 793 wire format through the §3.1 shim
	// (interoperates with the monolithic TCP); otherwise the native
	// Fig. 6 header is used.
	UseShim bool
	// NativeSACK enables SACK blocks (native mode; the shim negotiates
	// SACK with standard options).
	NativeSACK bool
	// DelayedAcks acknowledges every second in-order segment (or after
	// 50ms) instead of every segment — the classic ack-thinning tune
	// (challenge 3). Out-of-order arrivals still ack immediately.
	DelayedAcks bool
	// Tracker, if set, records per-handler state access for the E6
	// entanglement experiment.
	Tracker *verify.Tracker
	// Contracts, if set, evaluates every sublayer's invariants after
	// each processed segment — the paper's localize-bugs-to-sublayers
	// debugging story. Nil costs nothing.
	Contracts *verify.Checker
	// MaxDataRexmit bounds consecutive data-path retransmission timeouts
	// without forward progress before RD gives up and destroys the
	// connection with ErrTimeout (the user timeout of RFC 793 §3.8,
	// mirroring the monolithic baseline's MaxRexmit). Any cumulative-ack
	// advance resets the count. Default 12; negative disables the bound
	// (retransmit forever, the pre-hardening behavior).
	MaxDataRexmit int
	// CM tuning shared by default managers.
	CMConfig CMConfig
	// Metrics, when non-nil, adopts the stack's instruments under this
	// scope: "dm/..." for the demultiplexer and, once the first
	// connection exists, "<sublayer>/..." totals over all connections
	// (see NewStack). A nil scope costs nothing (instruments
	// stay detached).
	Metrics *metrics.Scope
}

func (c Config) withDefaults() Config {
	if c.MSS <= 0 {
		c.MSS = 1000
	}
	if c.SendBuf <= 0 {
		c.SendBuf = 64 * 1024
	}
	if c.RecvBuf <= 0 {
		c.RecvBuf = 64 * 1024
	}
	if c.NewCC == nil {
		name := c.CC
		c.NewCC = func(mss int) CongestionControl {
			return ccontrol.MustNew(name, ccontrol.Config{MSS: mss})
		}
	}
	if c.MaxDataRexmit == 0 {
		c.MaxDataRexmit = 12
	}
	if c.NewCM == nil {
		cmCfg := c.CMConfig
		c.NewCM = func() ConnManager { return NewHandshakeCM(&CryptoISN{}, cmCfg) }
	}
	return c
}

// connID identifies a connection in DM's demultiplexing table.
type connID struct {
	remoteAddr network.Addr
	remotePort uint16
	localPort  uint16
}

// dmMetrics instruments demultiplexing outcomes.
type dmMetrics struct {
	delivered  metrics.Counter
	newPassive metrics.Counter
	noListener metrics.Counter
	malformed  metrics.Counter
	rstsSent   metrics.Counter
}

func (m *dmMetrics) bind(sc *metrics.Scope) {
	sc.Register("delivered", &m.delivered)
	sc.Register("new_passive", &m.newPassive)
	sc.Register("no_listener", &m.noListener)
	sc.Register("malformed", &m.malformed)
	sc.Register("rsts_sent", &m.rstsSent)
}

func (m *dmMetrics) view() metrics.View {
	return metrics.View{
		"delivered":   m.delivered.Value(),
		"new_passive": m.newPassive.Value(),
		"no_listener": m.noListener.Value(),
		"malformed":   m.malformed.Value(),
		"rsts_sent":   m.rstsSent.Value(),
	}
}

// DM is the demultiplexing sublayer — "essentially UDP; it allows
// demultiplexing via standard destination and source port numbers. No
// sublayer can do its work without DM; so we place DM at the bottom.
// DM encapsulates details of binding IP addresses to ports and reusing
// ports." (§3)
type DM struct {
	stack     *Stack
	listeners map[uint16]*Listener
	conns     map[connID]*Conn
	// portUse counts the entries of conns on each local port, so
	// allocPort tests a port without scanning the table.
	portUse  map[uint16]int
	nextPort uint16
	// rxHdr is the scratch header every native-mode segment is parsed
	// into: the receive path is single-threaded (one event at a time)
	// and nothing below retains the header across events, so one
	// instance per stack suffices and parsing allocates nothing.
	rxHdr tcpwire.SubHeader
	m     dmMetrics
}

// Listener accepts passive opens on a port.
type Listener struct {
	stack *Stack
	port  uint16
	// OnAccept is invoked with each newly created (still handshaking)
	// connection; set callbacks on it there.
	OnAccept func(*Conn)
	accepted []*Conn
}

// Accepted returns connections created so far.
func (l *Listener) Accepted() []*Conn { return l.accepted }

// Port returns the listening port.
func (l *Listener) Port() uint16 { return l.port }

// Stack is one host's sublayered transport: a DM instance bound to a
// router, creating four-sublayer Conns.
type Stack struct {
	sim    netsim.Backend
	router *network.Router
	cfg    Config
	dm     *DM
	shim   *tcpwire.Shim
	// rttMs is the distribution (milliseconds) of every connection's
	// Karn-valid RTT samples. All of a stack's connections run on its
	// node, so the histogram has a single writer.
	rttMs  *metrics.Histogram
	totals connTotals
	// traceName labels this stack's causal-trace events ("n1/sub").
	traceName string
}

// NewStack attaches a sublayered transport to a router. In shim mode
// it claims the router's ProtoTCP handler; in native mode ProtoSubTCP.
//
// With cfg.Metrics set, the stack's instruments live under that scope:
// "dm/..." and "shim/..." at once and, when the first connection is
// created, one series per connection counter,
// "{crossings,rd,osr,cm}/<name>", holding the sum over every
// connection the stack has had, plus the stack's "rd/rtt_ms"
// histogram. The series count is bounded by the topology, not by the
// number of connections; per-connection values stay on the connection
// (RD.Stats, OSR.Stats, HandshakeCM.Stats, Conn.CrossingStats).
func NewStack(sim netsim.Backend, router *network.Router, cfg Config) *Stack {
	s := &Stack{sim: sim, router: router, cfg: cfg.withDefaults(),
		rttMs:     metrics.NewHistogram(rttBoundsMs...),
		traceName: router.Addr().String() + "/sub"}
	s.totals.stack = s
	s.dm = &DM{
		stack:     s,
		listeners: make(map[uint16]*Listener),
		conns:     make(map[connID]*Conn),
		portUse:   make(map[uint16]int),
		nextPort:  49152,
	}
	if s.cfg.UseShim {
		s.shim = tcpwire.NewShim(uint16(s.cfg.MSS))
		router.Handle(network.ProtoTCP, s.dm.receive)
	} else {
		router.Handle(network.ProtoSubTCP, s.dm.receive)
	}
	if sc := s.cfg.Metrics; sc != nil {
		s.dm.m.bind(sc.Sub("dm"))
		if s.shim != nil {
			s.shim.BindMetrics(sc.Sub("shim"))
		}
	}
	return s
}

// Close aborts every open connection (RST to the peer, ErrReset
// locally) and releases every listener. The stack keeps its router
// handler but accepts no new work: dials fail to find state and
// inbound segments to freed ports draw RSTs.
func (s *Stack) Close() error {
	conns := make([]*Conn, 0, len(s.dm.conns))
	for _, c := range s.dm.conns {
		conns = append(conns, c)
	}
	for _, c := range conns {
		c.Abort()
	}
	s.dm.listeners = make(map[uint16]*Listener)
	return nil
}

// Addr returns the host's network address.
func (s *Stack) Addr() network.Addr { return s.router.Addr() }

// DMStats returns a snapshot of the demultiplexer's counters.
func (s *Stack) DMStats() metrics.View { return s.dm.m.view() }

// Config returns the stack's (defaulted) configuration.
func (s *Stack) Config() Config { return s.cfg }

// Listen binds a port for passive opens.
func (s *Stack) Listen(port uint16) (*Listener, error) {
	if _, busy := s.dm.listeners[port]; busy {
		return nil, fmt.Errorf("sublayered: port %d already bound", port)
	}
	l := &Listener{stack: s, port: port}
	s.dm.listeners[port] = l
	return l, nil
}

// Dial opens a connection to dstAddr:dstPort, returning immediately;
// use Conn.OnConnected for establishment.
func (s *Stack) Dial(dstAddr network.Addr, dstPort uint16) (*Conn, error) {
	local := s.dm.allocPort()
	if local == 0 {
		return nil, fmt.Errorf("sublayered: no free ephemeral ports")
	}
	c := s.newConn(tcpwire.FlowKey{
		SrcAddr: uint16(s.router.Addr()), DstAddr: uint16(dstAddr),
		SrcPort: local, DstPort: dstPort,
	})
	s.dm.add(c)
	c.cm.open(true, nil)
	return c, nil
}

// newConn builds the four-sublayer composition.
func (s *Stack) newConn(key tcpwire.FlowKey) *Conn {
	c := &Conn{
		stack: s,
		key:   key,
		id: connID{
			remoteAddr: network.Addr(key.DstAddr),
			remotePort: key.DstPort,
			localPort:  key.SrcPort,
		},
	}
	c.cm = s.cfg.NewCM()
	c.cm.attach(c)
	c.rd = newRD(c, s.cfg.NativeSACK || s.cfg.UseShim, s.cfg.DelayedAcks)
	c.osr = newOSR(c, s.cfg.NewCC(s.cfg.MSS), s.cfg.MSS, s.cfg.SendBuf, s.cfg.RecvBuf)
	// The totals are registered with the first connection, not with the
	// stack: a stack that never connects exports no connection series,
	// and building a world registers nothing per stack beyond dm/shim.
	if s.cfg.Metrics != nil && !s.totals.exported {
		s.totals.export(s.cfg.Metrics, c)
	}
	return c
}

// track/trackWrite feed the optional E6 instrumentation.
func (s *Stack) track(handler string) {
	if s.cfg.Tracker != nil {
		s.cfg.Tracker.Enter(handler)
	}
}

func (s *Stack) trackWrite(vars ...string) {
	if s.cfg.Tracker != nil {
		for _, v := range vars {
			s.cfg.Tracker.Write(v)
		}
	}
}

func (s *Stack) trackRead(vars ...string) {
	if s.cfg.Tracker != nil {
		for _, v := range vars {
			s.cfg.Tracker.Read(v)
		}
	}
}

// allocPort hands out an unused ephemeral port.
func (d *DM) allocPort() uint16 {
	for i := 0; i < 1<<14; i++ {
		p := d.nextPort
		d.nextPort++
		if d.nextPort == 0 {
			d.nextPort = 49152
		}
		if _, lb := d.listeners[p]; d.portUse[p] == 0 && !lb {
			return p
		}
	}
	return 0
}

// receive is the bottom of the stack: decode the wire format (native
// or through the shim), demultiplex on ports, and hand the segment to
// the connection — or create one for a SYN to a listening port.
func (d *DM) receive(dg *network.Datagram) {
	d.stack.track("dm.receive")
	var h *tcpwire.SubHeader
	var payload []byte
	var err error
	inKey := tcpwire.FlowKey{SrcAddr: uint16(dg.Src), DstAddr: uint16(dg.Dst)}
	if d.stack.shim != nil {
		// Ports live inside the TCP header; the shim checksum covers
		// addresses via the pseudo-header.
		h, payload, err = d.stack.shim.Inbound(dg.Payload, inKey)
	} else {
		h = &d.rxHdr
		payload, err = tcpwire.UnmarshalSubInto(h, dg.Payload)
	}
	if err != nil {
		d.m.malformed.Inc()
		return
	}
	id := connID{remoteAddr: dg.Src, remotePort: h.DM.SrcPort, localPort: h.DM.DstPort}
	if c, ok := d.conns[id]; ok {
		d.m.delivered.Inc()
		c.onSegment(h, payload, dg.ECN)
		return
	}
	// No connection: a first segment to a listener creates one
	// (passive open). Which first segments are acceptable is the
	// connection manager's business: the handshake CM requires a SYN,
	// the timer-based CM accepts any data-bearing segment. SYN-ACKs
	// are never passive opens.
	if !h.CM.RST && !(h.CM.SYN && h.RD.AckValid) {
		if l, ok := d.listeners[h.DM.DstPort]; ok {
			c := d.stack.newConn(tcpwire.FlowKey{
				SrcAddr: uint16(dg.Dst), DstAddr: uint16(dg.Src),
				SrcPort: h.DM.DstPort, DstPort: h.DM.SrcPort,
			})
			v := cmView{
				syn: h.CM.SYN, fin: h.CM.FIN, isn: seg.Seq(h.CM.ISN),
				seqNum: seg.Seq(h.RD.Seq), ackValid: h.RD.AckValid, ack: seg.Seq(h.RD.Ack),
			}
			// The manager vets the first segment; a rejected open never
			// reaches the listener.
			c.cm.open(false, &v)
			if c.dead {
				return
			}
			d.m.newPassive.Inc()
			d.add(c)
			l.accepted = append(l.accepted, c)
			if l.OnAccept != nil {
				l.OnAccept(c)
			}
			if !h.CM.SYN {
				// Timer-based opens carry data in the first segment.
				c.onSegment(h, payload, dg.ECN)
			}
			return
		}
	}
	d.m.noListener.Inc()
	if !h.CM.RST {
		d.sendRST(dg.Src, h)
	}
}

// sendRST answers a stray segment with a reset.
func (d *DM) sendRST(to network.Addr, in *tcpwire.SubHeader) {
	d.m.rstsSent.Inc()
	out := &tcpwire.SubHeader{
		DM: tcpwire.DMSection{SrcPort: in.DM.DstPort, DstPort: in.DM.SrcPort},
		CM: tcpwire.CMSection{RST: true},
		RD: tcpwire.RDSection{Seq: in.RD.Ack, Ack: in.RD.Seq, AckValid: true},
	}
	key := tcpwire.FlowKey{
		SrcAddr: uint16(d.stack.router.Addr()), DstAddr: uint16(to),
		SrcPort: out.DM.SrcPort, DstPort: out.DM.DstPort,
	}
	d.transmit(to, key, out, nil)
}

// send stamps DM's section and transmits a connection's segment.
func (d *DM) send(c *Conn, h *tcpwire.SubHeader, payload []byte) {
	d.stack.track("dm.send")
	h.DM = tcpwire.DMSection{SrcPort: c.key.SrcPort, DstPort: c.key.DstPort}
	id := d.transmit(network.Addr(c.key.DstAddr), c.key, h, payload)
	if id != 0 {
		// Remember the newest wire incarnation so a later abort can name
		// the offending packet in the flight-recorder dump.
		c.lastXmitID = id
	}
}

func (d *DM) transmit(to network.Addr, key tcpwire.FlowKey, h *tcpwire.SubHeader, payload []byte) uint64 {
	// Marshal straight into a pooled buffer with network-header
	// headroom: the segment is written exactly once and the same bytes
	// travel every hop (SendOwned transfers the buffer down the stack).
	var buf []byte
	proto := network.ProtoSubTCP
	if d.stack.shim != nil {
		wire := d.stack.shim.Outbound(h, payload, key)
		proto = network.ProtoTCP
		buf = bufpool.Get(network.Headroom + len(wire))
		copy(buf[network.Headroom:], wire)
	} else {
		buf = bufpool.Get(network.Headroom + h.WireLen(len(payload)))
		h.MarshalTo(buf[network.Headroom:], payload)
	}
	var id uint64
	if t := d.stack.sim.Tracer(); t != nil {
		// Stamp at allocation: this wire-buffer incarnation gets a fresh
		// generation-safe ID, and the xmit event ties it to (flow, seq)
		// so retransmissions of the same segment correlate.
		id = t.Stamp(buf)
		t.Emit(netsim.TraceEvent{
			At: d.stack.sim.Now(), ID: id, Flow: packFlow(key), Seq: h.RD.Seq,
			Len: len(payload), Node: d.stack.traceName,
			Layer: netsim.LayerTransport, Kind: "xmit",
		}, nil)
	}
	// Errors (no route yet) are dropped; retransmission recovers once
	// routing converges.
	_ = d.stack.router.SendOwned(to, proto, buf, false)
	return id
}

// packFlow folds the connection 4-tuple into the trace correlator.
func packFlow(key tcpwire.FlowKey) uint64 {
	return netsim.PackFlow(key.SrcAddr, key.DstAddr, key.SrcPort, key.DstPort)
}

// add enters a connection into the demux table.
func (d *DM) add(c *Conn) {
	d.conns[c.id] = c
	d.portUse[c.id.localPort]++
}

// remove deletes a dead connection from the demux table. A passive
// open the connection manager rejected was never entered.
func (d *DM) remove(id connID) {
	if _, ok := d.conns[id]; ok {
		delete(d.conns, id)
		d.portUse[id.localPort]--
	}
}

// Conns returns the live connection count (tests).
func (d *DM) Conns() int { return len(d.conns) }
