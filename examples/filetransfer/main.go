// Filetransfer: the paper's Fig. 5 sublayered TCP moving a megabyte
// across a five-router network whose links lose, reorder and duplicate
// packets. DM demultiplexes, CM establishes ISNs, RD delivers every
// segment exactly once, OSR reassembles the byte stream and paces the
// sender — and the file arrives bit-identical.
package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport/harness"
	"repro/internal/transport/sublayered"
)

func main() {
	w := harness.BuildWorld(harness.WorldConfig{
		Seed: 7,
		Hops: 5,
		Link: netsim.LinkConfig{
			Delay:       3 * time.Millisecond,
			Jitter:      time.Millisecond,
			LossProb:    0.05,
			ReorderProb: 0.05,
			DupProb:     0.02,
		},
		Client: harness.KindSublayeredNative, Server: harness.KindSublayeredNative,
	})
	defer w.Close()

	file := make([]byte, 1_000_000)
	rand.New(rand.NewSource(7)).Read(file)

	fmt.Printf("sending %d bytes across %d hops (5%% loss, 5%% reorder per link)...\n",
		len(file), 4)
	res, err := harness.RunTransfer(w, file, nil, time.Hour)
	if err != nil {
		panic(err)
	}

	fmt.Printf("received: %d bytes, identical=%v, in %v of virtual time\n",
		len(res.ServerGot), bytes.Equal(res.ServerGot, file),
		res.Elapsed.Truncate(time.Millisecond))

	conn := res.ClientConn.(*sublayered.Conn)
	rd := conn.RD().Stats()
	osr := conn.OSR().Stats()
	fmt.Printf("\nper-sublayer accounting at the sender:\n")
	fmt.Printf("  OSR segmented %d bytes into %d ready segments (stalled on windows %d times)\n",
		osr["bytes_segmented"], osr["segments_ready"], osr["window_stalls"])
	fmt.Printf("  RD sent %d segments, retransmitted %d (%d fast retransmits, %d timeouts)\n",
		rd["segments_sent"], rd["retransmits"], rd["fast_retransmits"], rd["timeouts"])
	fmt.Printf("  CM state: %s (stream closed cleanly)\n", conn.State())
	cr := conn.CrossingStats()
	fmt.Printf("  boundary crossings: OSR→RD %d, RD→OSR %d, DM %d down / %d up\n",
		cr.OSRToRD.Value(), cr.RDToOSRAck.Value()+cr.RDToOSRDat.Value()+cr.RDToOSRLos.Value(),
		cr.ToDM.Value(), cr.FromDM.Value())
}
