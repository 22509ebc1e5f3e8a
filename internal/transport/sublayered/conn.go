package sublayered

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/tcpwire"
	"repro/internal/transport/seg"
)

// Conn is one sublayered TCP connection: the composition of the four
// §3 sublayers, each owning disjoint state, wired together by exactly
// the narrow interfaces the paper draws in Fig. 5. Conn itself holds
// no protocol state — it is the wiring harness plus the application
// byte-stream API.
type Conn struct {
	stack *Stack
	key   tcpwire.FlowKey
	id    connID

	cm  ConnManager
	rd  *RD
	osr *OSR

	readBuf []byte
	eof     bool
	dead    bool
	err     error

	// lastXmitID is the trace ID of the newest wire buffer this
	// connection transmitted — the "offending packet" a flight-recorder
	// dump chases when the connection aborts. Zero when untraced.
	lastXmitID uint64

	// txHdr is the scratch header every outgoing segment is composed
	// in: transmit marshals it into the wire buffer before returning,
	// so nothing retains it and one instance per connection suffices.
	txHdr tcpwire.SubHeader

	// crossings counts traffic over each inter-sublayer boundary —
	// the raw material of the E9 hardware-offload analysis: a
	// partition at a boundary turns these into bus transactions.
	crossings Crossings

	// Application callbacks, all optional, invoked from the event loop.
	OnConnected func()
	OnReadable  func()
	OnWritable  func()
	OnClosed    func(err error)
}

// LocalPort returns the connection's local port.
func (c *Conn) LocalPort() uint16 { return c.key.SrcPort }

// RemotePort returns the connection's remote port.
func (c *Conn) RemotePort() uint16 { return c.key.DstPort }

// Callbacks sets the four application callbacks at once
// (transport.Conn).
func (c *Conn) Callbacks(onConnected, onReadable, onWritable func(), onClosed func(error)) {
	c.OnConnected, c.OnReadable, c.OnWritable, c.OnClosed = onConnected, onReadable, onWritable, onClosed
}

// State reports the connection-management state ("ESTABLISHED", ...).
func (c *Conn) State() string { return c.cm.state().String() }

// Err returns the terminal error, if the connection died.
func (c *Conn) Err() error { return c.err }

// RD exposes the reliable-delivery sublayer for stats and tests.
func (c *Conn) RD() *RD { return c.rd }

// OSR exposes the ordering/segmenting/rate sublayer for stats and
// tests.
func (c *Conn) OSR() *OSR { return c.osr }

// CM exposes the connection-management sublayer for stats and tests.
func (c *Conn) CM() ConnManager { return c.cm }

// Crossings counts events and bytes over each inter-sublayer boundary.
// The fields are live counters; CrossingStats returns a copy, which
// freezes them into a snapshot.
type Crossings struct {
	AppToOSR   metrics.Counter // Write calls
	AppBytes   metrics.Counter
	OSRToRD    metrics.Counter // segments handed down as "ready"
	OSRBytes   metrics.Counter
	RDToOSRAck metrics.Counter // onAcked notifications
	RDToOSRDat metrics.Counter // deliver notifications
	RDToOSRLos metrics.Counter // loss summaries
	CMToRD     metrics.Counter // established / fin notes
	ToDM       metrics.Counter // composed segments handed to DM
	FromDM     metrics.Counter // segments demultiplexed up
}

// bind names the boundary counters after the Fig. 5 edges they sit on.
func (x *Crossings) bind(r registrar) {
	r.Register("app_to_osr", &x.AppToOSR)
	r.Register("app_bytes", &x.AppBytes)
	r.Register("osr_to_rd", &x.OSRToRD)
	r.Register("osr_bytes", &x.OSRBytes)
	r.Register("rd_to_osr_ack", &x.RDToOSRAck)
	r.Register("rd_to_osr_dat", &x.RDToOSRDat)
	r.Register("rd_to_osr_los", &x.RDToOSRLos)
	r.Register("cm_to_rd", &x.CMToRD)
	r.Register("to_dm", &x.ToDM)
	r.Register("from_dm", &x.FromDM)
}

// CrossingStats returns a snapshot of the boundary counters.
func (c *Conn) CrossingStats() Crossings { return c.crossings }

// Write queues application bytes for transmission, returning how many
// were accepted (the rest did not fit the send buffer; retry after
// acks drain it).
func (c *Conn) Write(p []byte) int {
	if c.dead {
		return 0
	}
	c.crossings.AppToOSR.Inc()
	n := c.osr.write(p)
	c.crossings.AppBytes.Add(uint64(n))
	return n
}

// Read drains up to len(p) in-order received bytes. It returns 0 when
// nothing is pending; use OnReadable to learn when to retry. After the
// peer's stream ends, Read reports ok=false once drained.
func (c *Conn) Read(p []byte) (n int, open bool) {
	n = copy(p, c.readBuf)
	c.readBuf = c.readBuf[n:]
	if len(c.readBuf) == 0 && c.eof {
		return n, false
	}
	return n, true
}

// ReadAll drains everything pending.
func (c *Conn) ReadAll() []byte {
	out := c.readBuf
	c.readBuf = nil
	return out
}

// EOF reports whether the peer finished its stream and all bytes were
// read.
func (c *Conn) EOF() bool { return c.eof && len(c.readBuf) == 0 }

// Close ends the outgoing stream (sends FIN after queued data). The
// connection fully closes once both directions finish.
func (c *Conn) Close() {
	if c.dead {
		return
	}
	c.cm.closeWrite()
}

// Abort kills the connection immediately with a RST.
func (c *Conn) Abort() {
	if c.dead {
		return
	}
	c.txHdr = tcpwire.SubHeader{
		CM: tcpwire.CMSection{RST: true},
		RD: tcpwire.RDSection{Seq: uint32(c.rd.NextSeq())},
	}
	c.transmit(&c.txHdr, nil)
	c.destroy(ErrReset)
}

// --- wiring used by the sublayers ---

func (c *Conn) now() netsim.Time { return c.stack.sim.Now() }

func (c *Conn) schedule(d time.Duration, fn func()) *netsim.Timer {
	return c.stack.sim.Schedule(d, func() {
		if !c.dead {
			fn()
		}
	})
}

// onEstablished fires the application callback.
func (c *Conn) onEstablished() {
	if c.OnConnected != nil {
		c.OnConnected()
	}
	// Data may already be queued (write before connect completes).
	c.osr.pump()
}

// pushRead appends in-order bytes for the application.
func (c *Conn) pushRead(p []byte) {
	c.readBuf = append(c.readBuf, p...)
	if c.OnReadable != nil {
		c.OnReadable()
	}
}

// pushEOF marks the peer's stream complete.
func (c *Conn) pushEOF() {
	c.eof = true
	if c.OnReadable != nil {
		c.OnReadable()
	}
}

func (c *Conn) unreadLen() int { return len(c.readBuf) }

// notifyWritable tells the application the send buffer drained.
func (c *Conn) notifyWritable() {
	if c.OnWritable != nil {
		c.OnWritable()
	}
}

// onSegment is the per-connection receive path: CM sees its view
// first (handshake, FIN, RST), then RD processes sequence/ack bits,
// then OSR the window/ECN bits.
func (c *Conn) onSegment(h *tcpwire.SubHeader, payload []byte, ecnMarked bool) {
	if c.dead {
		return
	}
	v := cmView{
		syn: h.CM.SYN, fin: h.CM.FIN, rst: h.CM.RST,
		isn:        seg.Seq(h.CM.ISN),
		seqNum:     seg.Seq(h.RD.Seq),
		payloadLen: len(payload),
		ackValid:   h.RD.AckValid,
		ack:        seg.Seq(h.RD.Ack),
	}
	c.crossings.FromDM.Inc()
	deliver := c.cm.onSegment(v)
	if c.dead || !deliver {
		return
	}
	if ecnMarked {
		c.osr.noteECNMark()
	}
	c.rd.OnSegment(&h.RD, payload)
	if c.dead {
		return
	}
	c.osr.onPeerHeader(h.OSR)
	c.checkInvariants()
}

// xmitData sends a data-bearing segment on RD's behalf.
func (c *Conn) xmitData(seqNum seg.Seq, payload []byte) {
	c.txHdr = tcpwire.SubHeader{
		CM:  c.cm.section(),
		RD:  c.rd.Section(seqNum),
		OSR: c.osr.Section(),
	}
	c.transmit(&c.txHdr, payload)
}

// xmitAck sends a pure acknowledgement on RD's behalf.
func (c *Conn) xmitAck() {
	c.xmitData(c.rd.NextSeq(), nil)
}

// xmitCM sends a connection-management segment (SYN, SYN-ACK, FIN).
// CM supplies its own section and the segment's sequence number; the
// acknowledgement comes from RD once established, or from CM's
// explicit override during the handshake (§3.1: CM's bootstrap
// reliability replicates a little of RD, by design).
func (c *Conn) xmitCM(cm tcpwire.CMSection, seqNum seg.Seq, overrideAck seg.Seq, hasOverride bool) {
	c.txHdr = tcpwire.SubHeader{
		CM:  cm,
		RD:  c.rd.Section(seqNum),
		OSR: c.osr.Section(),
	}
	if hasOverride {
		c.txHdr.RD.AckValid = true
		c.txHdr.RD.Ack = uint32(overrideAck)
		c.txHdr.RD.SACK = nil
	}
	c.transmit(&c.txHdr, nil)
}

// transmit hands the composed segment to DM for port stamping and
// network transmission.
func (c *Conn) transmit(h *tcpwire.SubHeader, payload []byte) {
	c.crossings.ToDM.Inc()
	c.stack.dm.send(c, h, payload)
}

// trace emits one transport-layer span event for this connection when
// tracing is on; a no-op (single nil check) otherwise.
func (c *Conn) trace(kind, verdict string, id uint64, seqNum uint32, n int) {
	t := c.stack.sim.Tracer()
	if t == nil {
		return
	}
	t.Emit(netsim.TraceEvent{
		At: c.now(), ID: id, Flow: packFlow(c.key), Seq: seqNum, Len: n,
		Node: c.stack.traceName, Layer: netsim.LayerTransport,
		Kind: kind, Verdict: verdict,
	}, nil)
}

// destroy tears the connection down and informs the application.
func (c *Conn) destroy(err error) {
	if c.dead {
		return
	}
	c.dead = true
	c.err = err
	if err != nil {
		verdict := netsim.VerdictReset
		if err == ErrTimeout {
			verdict = netsim.VerdictTimeout
		}
		// The abort names the newest transmitted wire buffer: its causal
		// chain is what the flight recorder dumps.
		c.trace("abort", verdict, c.lastXmitID, uint32(c.rd.sndUna), 0)
	}
	c.cm.stop()
	c.rd.stop()
	c.osr.stop()
	c.stack.dm.remove(c.id)
	c.stack.totals.retire(c)
	if c.OnClosed != nil {
		c.OnClosed(err)
	}
}

// registrar adopts counters under names. Each per-connection counter
// group (Crossings, rdMetrics, osrMetrics, cmMetrics) lists its names
// once, in its bind method; the stack's totals walk those methods to
// name the series, to retire a dying connection and to sum the live
// ones, always in bind order.
type registrar interface {
	Register(name string, in metrics.Instrument)
}

const numConnGroups = 4

// counterGroup is one connection's counters under one scope name.
type counterGroup interface{ bind(r registrar) }

// connGroups are the per-connection counter groups a stack exports as
// totals. of returns nil when the connection has no such group (a
// connection manager without counters).
var connGroups = [numConnGroups]struct {
	scope string
	of    func(c *Conn) counterGroup
}{
	{"crossings", func(c *Conn) counterGroup { return &c.crossings }},
	{"rd", func(c *Conn) counterGroup { return &c.rd.m }},
	{"osr", func(c *Conn) counterGroup { return &c.osr.m }},
	{"cm", func(c *Conn) counterGroup {
		if h, ok := c.cm.(*HandshakeCM); ok {
			return &h.m
		}
		return nil
	}},
}

// connTotals exports a stack's connection counters as one series per
// name, "<group>/<name>", whatever the number of connections: each is
// the count of the destroyed connections plus the sum over the live
// ones in the demux table. Per-connection values stay on the
// connection (Stats, CrossingStats). Nothing is exported until export
// runs, and then retire and the sums cost one pass over a group's
// counters per connection.
type connTotals struct {
	stack    *Stack
	exported bool
	// retired[g][i] sums the i-th counter (bind order) of group g over
	// destroyed connections; nil for a group that was not exported.
	retired [numConnGroups][]uint64
	// walk is the adder add reuses, so retiring allocates nothing.
	walk adder
}

// adder is a registrar that adds the i-th counter it sees to sums[i].
type adder struct {
	n    int
	sums []uint64
}

func (a *adder) Register(_ string, in metrics.Instrument) {
	a.sums[a.n] += in.(*metrics.Counter).Value()
	a.n++
}

// add adds c's counters of group g into sums.
func (t *connTotals) add(c *Conn, g int, sums []uint64) {
	if grp := connGroups[g].of(c); grp != nil {
		t.walk = adder{sums: sums}
		grp.bind(&t.walk)
	}
}

// export registers the totals under sc, naming them after first's
// groups, together with the stack's RTT histogram ("rd/rtt_ms").
func (t *connTotals) export(sc *metrics.Scope, first *Conn) {
	t.exported = true
	for g, grp := range connGroups {
		if b := grp.of(first); b != nil {
			b.bind(totalNamer{t: t, g: g, sc: sc.Sub(grp.scope)})
		}
	}
	sc.Register("rd/rtt_ms", t.stack.rttMs)
}

// totalNamer registers one CounterFunc per name a group binds.
type totalNamer struct {
	t  *connTotals
	g  int
	sc *metrics.Scope
}

func (n totalNamer) Register(name string, _ metrics.Instrument) {
	t, g, i := n.t, n.g, len(n.t.retired[n.g])
	t.retired[g] = append(t.retired[g], 0)
	n.sc.Register(name, metrics.CounterFunc(func() uint64 { return t.total(g, i) }))
}

// total is the i-th counter of group g summed over every connection the
// stack has had.
func (t *connTotals) total(g, i int) uint64 {
	sums := append([]uint64(nil), t.retired[g]...)
	for _, c := range t.stack.dm.conns {
		t.add(c, g, sums)
	}
	return sums[i]
}

// retire folds a destroyed connection's counters into the totals.
func (t *connTotals) retire(c *Conn) {
	for g, sums := range t.retired {
		if sums != nil {
			t.add(c, g, sums)
		}
	}
}
