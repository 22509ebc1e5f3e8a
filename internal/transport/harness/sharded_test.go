package harness

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/transport"
)

// shardedBackends is the cross-shard differential matrix: the
// sequential simulator against the sharded engine at one and several
// shards. One shard exercises the view/rank machinery with no
// parallelism; four exercises cross-shard mailboxes and windows.
var shardedBackends = []string{BackendSim, "sharded:1", "sharded:4"}

// TestCrossShardDifferential is the sharding analogue of the
// cross-backend oracle: the same seed and payloads through the same
// stack on the sequential simulator and on the sharded engine (1 and 4
// shards) must produce byte-identical delivered streams AND
// byte-identical metrics snapshots — sharding must be invisible in
// every observable.
func TestCrossShardDifferential(t *testing.T) {
	c2s := make([]byte, 64*1024)
	s2c := make([]byte, 32*1024)
	rand.New(rand.NewSource(5)).Read(c2s)
	rand.New(rand.NewSource(6)).Read(s2c)

	for _, kind := range []Kind{KindSublayeredNative, KindMonolithic} {
		streams := map[string]*TransferResult{}
		snaps := map[string][]byte{}
		for _, backend := range shardedBackends {
			reg := metrics.New()
			w := BuildWorld(WorldConfig{
				Seed: 5, Backend: backend, Link: lossyLink,
				Client: kind, Server: kind, Metrics: reg,
			})
			res, err := RunTransfer(w, c2s, s2c, time.Hour)
			w.Close()
			if err != nil {
				t.Fatalf("%s/%s: RunTransfer: %v", kind, backend, err)
			}
			if !res.ServerEOF || !res.ClientEOF {
				t.Fatalf("%s/%s: transfer did not finish (serverEOF=%v clientEOF=%v)",
					kind, backend, res.ServerEOF, res.ClientEOF)
			}
			if !bytes.Equal(res.ServerGot, c2s) || !bytes.Equal(res.ClientGot, s2c) {
				t.Fatalf("%s/%s: delivered streams corrupted", kind, backend)
			}
			var snap bytes.Buffer
			enc := json.NewEncoder(&snap)
			var obj any
			w.Exec(func() { obj = reg.Snapshot() })
			if err := enc.Encode(obj); err != nil {
				t.Fatal(err)
			}
			streams[backend] = res
			snaps[backend] = snap.Bytes()
		}
		base := shardedBackends[0]
		for _, backend := range shardedBackends[1:] {
			if !bytes.Equal(streams[base].ServerGot, streams[backend].ServerGot) {
				t.Errorf("%s: c2s stream differs between %s and %s", kind, base, backend)
			}
			if !bytes.Equal(streams[base].ClientGot, streams[backend].ClientGot) {
				t.Errorf("%s: s2c stream differs between %s and %s", kind, base, backend)
			}
			if streams[base].Elapsed != streams[backend].Elapsed {
				t.Errorf("%s: virtual elapsed differs between %s (%v) and %s (%v)",
					kind, base, streams[base].Elapsed, backend, streams[backend].Elapsed)
			}
			if !bytes.Equal(snaps[base], snaps[backend]) {
				t.Errorf("%s: metrics snapshot differs between %s and %s:\n%s\nvs\n%s",
					kind, base, backend, diffHint(snaps[base], snaps[backend]), backend)
			}
		}
	}
}

// diffHint locates the first divergence between two JSON snapshots for
// the failure message.
func diffHint(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			hi := i + 80
			s := func(x []byte) string {
				h := hi
				if h > len(x) {
					h = len(x)
				}
				return string(x[lo:h])
			}
			return "…" + s(a) + "… vs …" + s(b) + "…"
		}
	}
	return "length mismatch"
}

// TestShardedMultiPairWorld pins the E16 world shape: several disjoint
// client/server pairs in one sharded world, each pair completing its
// own transfer, with the pair set identical at every shard count.
func TestShardedMultiPairWorld(t *testing.T) {
	const pairs = 4
	payload := []byte("multi-pair payload")
	for _, backend := range []string{BackendSim, "sharded:4"} {
		w := BuildWorld(WorldConfig{
			Seed: 11, Backend: backend, Link: netsim.LinkConfig{Delay: time.Millisecond},
			Hops: 2, Pairs: pairs,
		})
		if len(w.Ends) != pairs {
			t.Fatalf("%s: %d ends, want %d", backend, len(w.Ends), pairs)
		}
		got := make([][]byte, pairs)
		w.Exec(func() {
			for p, end := range w.Ends {
				p := p
				if err := end.Server.Listen(80, func(sc transport.Conn) {
					sc.Callbacks(nil, func() {
						got[p] = append(got[p], sc.ReadAll()...)
					}, nil, nil)
				}); err != nil {
					t.Errorf("%s: pair %d listen: %v", backend, p, err)
					return
				}
				cc, err := end.Client.Dial(end.ServerAddr, 80)
				if err != nil {
					t.Errorf("%s: pair %d dial: %v", backend, p, err)
					return
				}
				cc.Callbacks(func() {
					cc.Write(payload)
					cc.Close()
				}, nil, nil, nil)
			}
		})
		w.Sim.RunFor(time.Minute)
		for p := range got {
			if !bytes.Equal(got[p], payload) {
				t.Errorf("%s: pair %d delivered %q, want %q", backend, p, got[p], payload)
			}
		}
		w.Close()
	}
}
