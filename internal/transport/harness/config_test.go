package harness

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/monolithic"
	"repro/internal/transport/sublayered"
)

// TestConfigSelectsController proves the congestion controller is
// chosen by name in each stack's Config alike: SubCfg.CC on the
// sublayered native stack and the shim, MonoCfg.CC on the monolithic
// baseline, and both across an interop pair where the two ends run
// different implementations of the same controller. Both ends are
// checked, so a setting that reaches only one of them fails.
func TestConfigSelectsController(t *testing.T) {
	kinds := []Kind{KindSublayeredNative, KindSublayeredShim, KindMonolithic}
	seed := int64(70)
	for _, k := range kinds {
		k := k
		seed++
		s := seed
		t.Run(k.String(), func(t *testing.T) {
			w := BuildWorld(WorldConfig{
				Seed: s, Link: nastyLink(), Client: k, Server: k,
				SubCfg:  sublayered.Config{CC: "cubic"},
				MonoCfg: monolithic.Config{CC: "cubic"},
			})
			data := randBytes(60_000, s)
			res, err := RunTransfer(w, data, nil, 5*time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.ServerGot, data) {
				t.Fatalf("transfer: %d of %d bytes", len(res.ServerGot), len(data))
			}
			if got := connCCName(t, res.ClientConn); got != "cubic" {
				t.Errorf("client controller = %q, want cubic", got)
			}
			if got := connCCName(t, res.ServerConn); got != "cubic" {
				t.Errorf("server controller = %q, want cubic", got)
			}
		})
	}
	// Cross-implementation: shim client, monolithic server, one
	// controller name in each stack's Config.
	w := BuildWorld(WorldConfig{
		Seed: 99, Link: nastyLink(), Client: KindSublayeredShim, Server: KindMonolithic,
		SubCfg:  sublayered.Config{CC: "bbrlite"},
		MonoCfg: monolithic.Config{CC: "bbrlite"},
	})
	data := randBytes(60_000, 99)
	res, err := RunTransfer(w, data, nil, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.ServerGot, data) {
		t.Fatalf("interop transfer: %d of %d bytes", len(res.ServerGot), len(data))
	}
	if got := connCCName(t, res.ClientConn); got != "bbrlite" {
		t.Errorf("interop client controller = %q, want bbrlite", got)
	}
	if got := connCCName(t, res.ServerConn); got != "bbrlite" {
		t.Errorf("interop server controller = %q, want bbrlite", got)
	}
}

// connCCName extracts the controller name from either connection type.
func connCCName(t *testing.T, c transport.Conn) string {
	t.Helper()
	switch c := c.(type) {
	case *sublayered.Conn:
		return c.OSR().CC().Name()
	case *monolithic.PCB:
		return c.CC().Name()
	default:
		t.Fatalf("connection %T is neither stack's", c)
		return ""
	}
}
