package sublayer

import (
	"testing"
	"time"

	"repro/internal/netsim"
)

// prepender is a trivial test sublayer: prepends a tag byte on the way
// down and strips/validates it on the way up.
type prepender struct {
	name string
	tag  byte
	rt   Runtime
	bad  int
}

func (p *prepender) Name() string    { return p.name }
func (p *prepender) Service() string { return "adds tag " + string(p.tag) }
func (p *prepender) Attach(rt Runtime) {
	p.rt = rt
}
func (p *prepender) HandleDown(pdu *PDU) {
	pdu.Data = append([]byte{p.tag}, pdu.Data...)
	p.rt.SendDown(pdu)
}
func (p *prepender) HandleUp(pdu *PDU) {
	if len(pdu.Data) == 0 || pdu.Data[0] != p.tag {
		p.bad++
		p.rt.Drop(pdu, "bad tag")
		return
	}
	pdu.Data = pdu.Data[1:]
	p.rt.DeliverUp(pdu)
}

func twoLayerStack(t *testing.T, sim *netsim.Simulator) (*Stack, *prepender, *prepender) {
	t.Helper()
	a := &prepender{name: "alpha", tag: 'A'}
	b := &prepender{name: "beta", tag: 'B'}
	s, err := New(sim, "test", a, b)
	if err != nil {
		t.Fatal(err)
	}
	return s, a, b
}

func TestStackDownUp(t *testing.T) {
	sim := netsim.NewSimulator(1, nil)
	s, _, _ := twoLayerStack(t, sim)
	var wireData, appData []byte
	s.SetWire(func(p *PDU) { wireData = p.Data })
	s.SetApp(func(p *PDU) { appData = p.Data })

	s.Send(NewPDU([]byte("hi")))
	if string(wireData) != "BAhi" {
		t.Errorf("wire = %q, want headers added bottom-most last", wireData)
	}
	s.Receive(NewPDU(append([]byte(nil), wireData...)))
	if string(appData) != "hi" {
		t.Errorf("app = %q", appData)
	}
}

func TestStackHeaderOrdering(t *testing.T) {
	// Top layer's header must be innermost — receive path strips
	// bottom layer first.
	sim := netsim.NewSimulator(1, nil)
	s, _, _ := twoLayerStack(t, sim)
	var wireData []byte
	s.SetWire(func(p *PDU) { wireData = p.Data })
	s.Send(NewPDU(nil))
	if string(wireData) != "BA" {
		t.Errorf("header order = %q, want BA", wireData)
	}
}

func TestStackDropsBadHeader(t *testing.T) {
	sim := netsim.NewSimulator(1, nil)
	s, _, b := twoLayerStack(t, sim)
	delivered := 0
	s.SetApp(func(p *PDU) { delivered++ })
	s.Receive(NewPDU([]byte("Xjunk")))
	if delivered != 0 {
		t.Error("junk delivered to app")
	}
	if b.bad != 1 {
		t.Errorf("bottom layer saw %d bad frames", b.bad)
	}
	bs := s.Boundaries()
	// The drop is accounted at beta's boundary (index 2: above beta).
	foundDrop := false
	for _, x := range bs {
		if x.Drops > 0 {
			foundDrop = true
		}
	}
	if !foundDrop {
		t.Error("drop not accounted")
	}
}

func TestBoundaryCrossingCounts(t *testing.T) {
	sim := netsim.NewSimulator(1, nil)
	s, _, _ := twoLayerStack(t, sim)
	s.SetWire(func(p *PDU) {})
	s.SetApp(func(p *PDU) {})
	for i := 0; i < 5; i++ {
		s.Send(NewPDU([]byte("xy")))
	}
	s.Receive(NewPDU([]byte("BAxy")))
	bs := s.Boundaries()
	if len(bs) != 3 {
		t.Fatalf("boundaries = %d", len(bs))
	}
	if bs[0].Above != "app" || bs[0].Below != "alpha" {
		t.Errorf("boundary 0 = %+v", bs[0])
	}
	if bs[2].Above != "beta" || bs[2].Below != "wire" {
		t.Errorf("boundary 2 = %+v", bs[2])
	}
	if bs[0].Down != 5 || bs[1].Down != 5 || bs[2].Down != 5 {
		t.Errorf("down counts = %d %d %d", bs[0].Down, bs[1].Down, bs[2].Down)
	}
	if bs[2].Up != 1 || bs[1].Up != 1 || bs[0].Up != 1 {
		t.Errorf("up counts = %d %d %d", bs[2].Up, bs[1].Up, bs[0].Up)
	}
	// Byte accounting grows with headers on the way down.
	if bs[2].DownBytes != 5*4 {
		t.Errorf("wire down bytes = %d", bs[2].DownBytes)
	}
	if bs[0].DownBytes != 5*2 {
		t.Errorf("app down bytes = %d", bs[0].DownBytes)
	}
}

func TestNewValidation(t *testing.T) {
	sim := netsim.NewSimulator(1, nil)
	if _, err := New(sim, "empty"); err == nil {
		t.Error("empty stack accepted")
	}
	if _, err := New(sim, "noname", &prepender{name: "", tag: 'A'}); err == nil {
		t.Error("unnamed layer accepted")
	}
	if _, err := New(sim, "dup",
		&prepender{name: "x", tag: 'A'},
		&prepender{name: "x", tag: 'B'}); err == nil {
		t.Error("duplicate names accepted")
	}
}

type serviceless struct{ prepender }

func (s *serviceless) Service() string { return "  " }

func TestNewRequiresServiceT1(t *testing.T) {
	sim := netsim.NewSimulator(1, nil)
	l := &serviceless{prepender{name: "svc", tag: 'S'}}
	if _, err := New(sim, "t1", l); err == nil {
		t.Error("sublayer without declared service accepted (T1)")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(netsim.NewSimulator(1, nil), "bad")
}

// delayer exercises the timer path: holds each PDU for 1ms.
type delayer struct {
	rt Runtime
}

func (d *delayer) Name() string      { return "delayer" }
func (d *delayer) Service() string   { return "delays PDUs" }
func (d *delayer) Attach(rt Runtime) { d.rt = rt }
func (d *delayer) HandleDown(p *PDU) {
	d.rt.Schedule(time.Millisecond, func() { d.rt.SendDown(p) })
}
func (d *delayer) HandleUp(p *PDU) { d.rt.DeliverUp(p) }

func TestSublayerTimers(t *testing.T) {
	sim := netsim.NewSimulator(1, nil)
	s := MustNew(sim, "timers", &delayer{})
	var at netsim.Time
	s.SetWire(func(p *PDU) { at = sim.Now() })
	s.Send(NewPDU([]byte("x")))
	if at != 0 && at == sim.Now() {
		t.Error("PDU sent synchronously despite delay")
	}
	sim.Run(0)
	if at != netsim.Time(time.Millisecond) {
		t.Errorf("wire at %v", at)
	}
}

func TestTracer(t *testing.T) {
	sim := netsim.NewSimulator(1, nil)
	s, _, _ := twoLayerStack(t, sim)
	s.SetWire(func(p *PDU) {})
	var events []string
	s.SetTracer(func(ev, layer string, p *PDU) { events = append(events, ev+":"+layer) })
	s.Send(NewPDU(nil))
	want := []string{"down:alpha", "down:beta", "down:wire"}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v", events)
		}
	}
}

func TestPDUClone(t *testing.T) {
	p := &PDU{Data: []byte{1, 2}, BitLen: 13, Meta: Meta{ErrDetected: true}}
	c := p.Clone()
	c.Data[0] = 9
	if p.Data[0] != 1 {
		t.Error("Clone aliased data")
	}
	if c.BitLen != 13 || !c.Meta.ErrDetected {
		t.Error("Clone dropped fields")
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d", p.Len())
	}
}

func TestDescribe(t *testing.T) {
	sim := netsim.NewSimulator(1, nil)
	s, _, _ := twoLayerStack(t, sim)
	d := s.Describe()
	if d == "" || !contains(d, "alpha") || !contains(d, "beta") {
		t.Errorf("Describe = %q", d)
	}
	if s.Name() != "test" || len(s.Layers()) != 2 {
		t.Error("accessors wrong")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestDescriptorClassify(t *testing.T) {
	cases := []struct {
		d    Descriptor
		want Classification
	}{
		// The paper's examples: buffer management is functional
		// modularity (no peer service).
		{Descriptor{Name: "buffer-mgmt"}, ClassFunctional},
		// TCP: public interface, complete service, port namespace.
		{Descriptor{Name: "tcp", Service: "reliable byte stream",
			PublicInterface: true, CompleteService: true, OwnNamespace: true}, ClassLayer},
		// Framing: peer service but internal, fine-grained, no names.
		{Descriptor{Name: "framing", Service: "symbols to frames"}, ClassSublayer},
		// Two of three principles → layer.
		{Descriptor{Name: "ip", Service: "datagrams",
			PublicInterface: true, OwnNamespace: true}, ClassLayer},
	}
	for _, c := range cases {
		if got := c.d.Classify(); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.d.Name, got, c.want)
		}
	}
	if ClassSublayer.String() != "sublayer" || ClassLayer.String() != "layer" ||
		ClassFunctional.String() != "functional-module" {
		t.Error("Classification strings wrong")
	}
}
