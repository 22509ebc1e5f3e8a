package harness

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/pcap"
	"repro/internal/trace"
)

// lossyLink is a moderately impaired path: enough loss and reordering
// to force retransmission machinery on every backend, not enough to
// stall a bidirectional transfer.
var lossyLink = netsim.LinkConfig{Delay: time.Millisecond, LossProb: 0.02, ReorderProb: 0.02}

// runBidirectional moves c2s and s2c across a fresh world on the
// given backend and returns the transfer result.
func runBidirectional(t *testing.T, backend string, kind Kind, c2s, s2c []byte) *TransferResult {
	t.Helper()
	w := BuildWorld(WorldConfig{
		Seed: 5, Backend: backend, Link: lossyLink,
		Client: kind, Server: kind,
	})
	defer w.Close()
	budget := time.Hour // virtual
	if w.Realtime() {
		budget = 30 * time.Second // wall
	}
	res, err := RunTransfer(w, c2s, s2c, budget)
	if err != nil {
		t.Fatalf("%s backend: RunTransfer: %v", backend, err)
	}
	return res
}

// TestCrossBackendDifferential is the backend analogue of the E14
// cross-stack oracle: the same seed and payloads through the same
// stack on the simulator and on the channel backend must produce
// byte-identical delivered streams in both directions, with zero
// watchdog violations — the backend under the stack is fungible.
func TestCrossBackendDifferential(t *testing.T) {
	c2s := make([]byte, 64*1024)
	s2c := make([]byte, 32*1024)
	rand.New(rand.NewSource(5)).Read(c2s)
	rand.New(rand.NewSource(6)).Read(s2c)

	for _, kind := range []Kind{KindSublayeredNative, KindMonolithic} {
		got := map[string]*TransferResult{}
		for _, backend := range []string{BackendSim, BackendChan} {
			res := runBidirectional(t, backend, kind, c2s, s2c)
			wd := faults.NewWatchdog()
			wd.CheckComplete(backend+"/c2s", c2s, res.ServerGot)
			wd.CheckComplete(backend+"/s2c", s2c, res.ClientGot)
			if v := wd.Violations(); len(v) != 0 {
				t.Fatalf("%s/%s: violations: %v", kind, backend, v)
			}
			if !res.ServerEOF || !res.ClientEOF {
				t.Fatalf("%s/%s: transfer did not finish (serverEOF=%v clientEOF=%v)",
					kind, backend, res.ServerEOF, res.ClientEOF)
			}
			got[backend] = res
		}
		if !bytes.Equal(got[BackendSim].ServerGot, got[BackendChan].ServerGot) {
			t.Fatalf("%s: c2s stream differs between sim and chan backends", kind)
		}
		if !bytes.Equal(got[BackendSim].ClientGot, got[BackendChan].ClientGot) {
			t.Fatalf("%s: s2c stream differs between sim and chan backends", kind)
		}
	}
}

// TestTransferOverUDPBackend pushes a bidirectional transfer through
// real loopback sockets, impairments live.
func TestTransferOverUDPBackend(t *testing.T) {
	if !UDPAvailable() {
		t.Skip("loopback UDP sockets unavailable")
	}
	c2s := make([]byte, 48*1024)
	s2c := make([]byte, 16*1024)
	rand.New(rand.NewSource(9)).Read(c2s)
	rand.New(rand.NewSource(10)).Read(s2c)
	res := runBidirectional(t, BackendUDP, KindSublayeredNative, c2s, s2c)
	if !bytes.Equal(res.ServerGot, c2s) || !bytes.Equal(res.ClientGot, s2c) {
		t.Fatalf("udp transfer corrupted: server %d/%d bytes, client %d/%d bytes",
			len(res.ServerGot), len(c2s), len(res.ClientGot), len(s2c))
	}
}

// TestTracingOnChanBackend pins the observability-identity half of
// the Backend contract: the causal-trace collector and the pcapng
// capture path work unchanged on a real-time backend.
func TestTracingOnChanBackend(t *testing.T) {
	w := BuildWorld(WorldConfig{Seed: 7, Backend: BackendChan, Link: netsim.LinkConfig{Delay: time.Millisecond}})
	defer w.Close()
	col := trace.NewCollector(trace.Options{RingCap: 2048, DoneCap: 256})
	var capture bytes.Buffer
	pw, err := pcap.NewWriter(&capture)
	if err != nil {
		t.Fatal(err)
	}
	col.CaptureTo(pw)
	w.Exec(func() { w.Sim.SetTracer(col) })
	res, err := RunTransfer(w, []byte("traced payload"), nil, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.ServerGot) != "traced payload" {
		t.Fatalf("transfer failed under tracing: %q", res.ServerGot)
	}
	w.Exec(func() {
		if col.Total() == 0 {
			t.Error("collector saw no trace events on the chan backend")
		}
	})
	if capture.Len() == 0 {
		t.Error("pcapng capture is empty on the chan backend")
	}
}

// TestNewBuilderDefaults pins the single construction path: BuildWorld
// with only the backend set builds a working sim world with the
// documented defaults.
func TestNewBuilderDefaults(t *testing.T) {
	w := BuildWorld(WorldConfig{Backend: BackendSim})
	defer w.Close()
	if w.Backend != BackendSim || w.Realtime() {
		t.Fatalf("default world misbuilt: backend=%q realtime=%v", w.Backend, w.Realtime())
	}
	if len(w.Topo.Routers) != 4 {
		t.Fatalf("default hops = %d, want 4", len(w.Topo.Routers))
	}
	res, err := RunTransfer(w, []byte("ping"), []byte("pong"), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.ServerGot) != "ping" || string(res.ClientGot) != "pong" {
		t.Fatalf("echo failed: %q / %q", res.ServerGot, res.ClientGot)
	}
}
