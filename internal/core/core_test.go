package core

import (
	"testing"

	"repro/internal/netsim"
)

// trivial sublayer for the facade smoke test.
type echo struct{ rt Runtime }

func (e *echo) Name() string      { return "echo" }
func (e *echo) Service() string   { return "passes PDUs through unchanged" }
func (e *echo) Attach(rt Runtime) { e.rt = rt }
func (e *echo) HandleDown(p *PDU) { e.rt.SendDown(p) }
func (e *echo) HandleUp(p *PDU)   { e.rt.DeliverUp(p) }

func TestFacadeComposes(t *testing.T) {
	sim := netsim.NewSimulator(1, nil)
	st, err := NewStack(sim, "facade", &echo{})
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	st.SetWire(func(p *PDU) { out = p.Data })
	st.Send(&PDU{Data: []byte("hi")})
	if string(out) != "hi" {
		t.Fatalf("wire = %q", out)
	}
	if MustNewStack(sim, "x", &echo{}) == nil {
		t.Fatal("MustNewStack nil")
	}
}

func TestFacadeClassify(t *testing.T) {
	d := Descriptor{Name: "framing", Service: "delimits frames"}
	if d.Classify() != ClassSublayer {
		t.Errorf("framing classified as %v", d.Classify())
	}
	if (Descriptor{Name: "buffer"}).Classify() != ClassFunctional {
		t.Error("peer-less module not functional")
	}
	if (Descriptor{Name: "ip", Service: "datagrams", PublicInterface: true, OwnNamespace: true}).Classify() != ClassLayer {
		t.Error("ip not a layer")
	}
}
