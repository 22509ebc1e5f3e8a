package streams

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/transport/harness"
)

// pipe is an in-memory Transport for unit tests: writes land in the
// peer's read buffer.
type pipe struct {
	peer  *pipe
	inbox []byte
	limit int // max bytes accepted per Write, 0 = all
}

func newPipePair() (*pipe, *pipe) {
	a, b := &pipe{}, &pipe{}
	a.peer, b.peer = b, a
	return a, b
}

func (p *pipe) Write(b []byte) int {
	n := len(b)
	if p.limit > 0 && n > p.limit {
		n = p.limit
	}
	p.peer.inbox = append(p.peer.inbox, b[:n]...)
	return n
}

func (p *pipe) ReadAll() []byte {
	out := p.inbox
	p.inbox = nil
	return out
}

func TestMuxTwoStreams(t *testing.T) {
	a, b := newPipePair()
	ma := NewMux(a, true)
	mb := NewMux(b, false)
	got := map[uint32][]byte{}
	mb.OnStream = func(s *Stream) {
		s.OnReadable = func() { got[s.ID()] = append(got[s.ID()], s.ReadAll()...) }
	}
	s1, s2 := ma.Open(), ma.Open()
	if s1.ID() == s2.ID() {
		t.Fatal("duplicate stream ids")
	}
	if err := s1.Write([]byte("stream one")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Write([]byte("stream two")); err != nil {
		t.Fatal(err)
	}
	if err := s1.Write([]byte(" again")); err != nil {
		t.Fatal(err)
	}
	if err := mb.Pump(); err != nil {
		t.Fatal(err)
	}
	if string(got[s1.ID()]) != "stream one again" || string(got[s2.ID()]) != "stream two" {
		t.Fatalf("got %q / %q", got[s1.ID()], got[s2.ID()])
	}
}

func TestMuxFINAndClose(t *testing.T) {
	a, b := newPipePair()
	ma, mb := NewMux(a, true), NewMux(b, false)
	var remote *Stream
	mb.OnStream = func(s *Stream) { remote = s }
	s := ma.Open()
	if err := s.Write([]byte("bye")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Write([]byte("x")); err == nil {
		t.Error("write after close succeeded")
	}
	if err := mb.Pump(); err != nil {
		t.Fatal(err)
	}
	if string(remote.ReadAll()) != "bye" || !remote.EOF() {
		t.Error("FIN not delivered")
	}
	if s.Close() != nil {
		t.Error("double close errored")
	}
}

func TestMuxBidirectionalIDSpaces(t *testing.T) {
	a, b := newPipePair()
	ma, mb := NewMux(a, true), NewMux(b, false)
	sa, sb := ma.Open(), mb.Open()
	if sa.ID()%2 != 1 || sb.ID()%2 != 0 {
		t.Fatalf("id spaces collide: %d %d", sa.ID(), sb.ID())
	}
	var atA, atB []byte
	ma.OnStream = func(s *Stream) { s.OnReadable = func() { atA = append(atA, s.ReadAll()...) } }
	mb.OnStream = func(s *Stream) { s.OnReadable = func() { atB = append(atB, s.ReadAll()...) } }
	_ = sa.Write([]byte("to-b"))
	_ = sb.Write([]byte("to-a"))
	_ = mb.Pump()
	_ = ma.Pump()
	if string(atB) != "to-b" || string(atA) != "to-a" {
		t.Fatalf("bidirectional failed: %q %q", atA, atB)
	}
}

func TestMuxLargeWriteFragmentsFrames(t *testing.T) {
	a, b := newPipePair()
	ma, mb := NewMux(a, true), NewMux(b, false)
	var got []byte
	mb.OnStream = func(s *Stream) {
		s.OnReadable = func() { got = append(got, s.ReadAll()...) }
	}
	big := make([]byte, 3*maxFrame+777)
	rand.New(rand.NewSource(1)).Read(big)
	s := ma.Open()
	if err := s.Write(big); err != nil {
		t.Fatal(err)
	}
	if err := mb.Pump(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatalf("large write corrupted (%d of %d)", len(got), len(big))
	}
	if ma.Stats().Get("frames_sent") < 4 {
		t.Errorf("FramesSent = %d, want ≥4", ma.Stats().Get("frames_sent"))
	}
}

func TestMuxBackpressure(t *testing.T) {
	a, b := newPipePair()
	a.limit = 5 // transport accepts five bytes at a time
	ma, mb := NewMux(a, true), NewMux(b, false)
	var got []byte
	mb.OnStream = func(s *Stream) {
		s.OnReadable = func() { got = append(got, s.ReadAll()...) }
	}
	s := ma.Open()
	if err := s.Write([]byte("slowly does it")); err != nil {
		t.Fatal(err)
	}
	// Drain with repeated flush/pump rounds, as callbacks would.
	for i := 0; i < 40; i++ {
		ma.Flush()
		if err := mb.Pump(); err != nil {
			t.Fatal(err)
		}
	}
	if string(got) != "slowly does it" {
		t.Fatalf("got %q", got)
	}
}

func TestMuxPartialFrameDelivery(t *testing.T) {
	// Bytes can arrive split anywhere, including mid-header.
	a, b := newPipePair()
	ma, mb := NewMux(a, true), NewMux(b, false)
	var got []byte
	mb.OnStream = func(s *Stream) {
		s.OnReadable = func() { got = append(got, s.ReadAll()...) }
	}
	s := ma.Open()
	_ = s.Write([]byte("chopped up payload"))
	whole := b.inbox // steal and re-feed one byte at a time
	b.inbox = nil
	for _, by := range whole {
		b.inbox = append(b.inbox, by)
		if err := mb.Pump(); err != nil {
			t.Fatal(err)
		}
	}
	if string(got) != "chopped up payload" {
		t.Fatalf("got %q", got)
	}
}

func TestMuxMalformedFrameLength(t *testing.T) {
	a, b := newPipePair()
	_ = NewMux(a, true)
	mb := NewMux(b, false)
	// Craft a frame claiming an oversize length.
	b.inbox = []byte{0, 0, 0, 1, 0, 0xFF, 0xFF}
	if err := mb.Pump(); err == nil {
		t.Error("oversize frame accepted")
	}
	if mb.Stats().Get("malformed") != 1 {
		t.Error("malformed not counted")
	}
}

// TestMuxOverRealTransport runs the stream sublayer over the actual
// sublayered TCP across a lossy simulated network: three streams
// interleaved over one connection, all intact — the §5/SST use case.
func TestMuxOverRealTransport(t *testing.T) {
	w := harness.BuildWorld(harness.WorldConfig{
		Seed:   77,
		Link:   netsim.LinkConfig{Delay: 2 * time.Millisecond, LossProb: 0.04, ReorderProb: 0.04},
		Client: harness.KindSublayeredNative, Server: harness.KindSublayeredNative,
	})
	want := map[uint32][]byte{}
	got := map[uint32][]byte{}

	var serverMux *Mux
	if err := w.Server.Listen(80, func(e transport.Conn) {
		serverMux = NewMux(e, false)
		serverMux.OnStream = func(s *Stream) {
			s.OnReadable = func() { got[s.ID()] = append(got[s.ID()], s.ReadAll()...) }
		}
		e.Callbacks(nil, func() {
			if err := serverMux.Pump(); err != nil {
				t.Errorf("pump: %v", err)
			}
		}, func() { serverMux.Flush() }, nil)
	}); err != nil {
		t.Fatal(err)
	}

	e, err := w.Client.Dial(w.ServerAddr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	clientMux := NewMux(e, true)
	rng := rand.New(rand.NewSource(5))
	e.Callbacks(func() {
		// Interleave writes on three streams.
		ss := []*Stream{clientMux.Open(), clientMux.Open(), clientMux.Open()}
		for round := 0; round < 10; round++ {
			for _, s := range ss {
				chunk := make([]byte, 1000+rng.Intn(2000))
				rng.Read(chunk)
				want[s.ID()] = append(want[s.ID()], chunk...)
				if err := s.Write(chunk); err != nil {
					t.Errorf("write: %v", err)
				}
			}
		}
		for _, s := range ss {
			_ = s.Close()
		}
	}, nil, func() { clientMux.Flush() }, nil)

	w.Sim.RunFor(5 * time.Minute)

	if len(got) != 3 {
		t.Fatalf("server saw %d streams, want 3", len(got))
	}
	for id, data := range want {
		if !bytes.Equal(got[id], data) {
			t.Errorf("stream %d: %d of %d bytes", id, len(got[id]), len(data))
		}
	}
}
