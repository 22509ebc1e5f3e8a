package main

import (
	"path"
	"strings"
)

// layers lists the ledger's layers in report order. They are the
// repository's modules; netsim, sublayered and monolithic are split by
// source file so the engine, the shard machinery and the links, each
// transport sublayer, and the monolithic input and output paths get
// their own rows. runtime collects samples with no repository frame on
// the stack (GC workers, the scheduler, the profiler itself).
var layers = []string{
	"netsim.engine", "netsim.sharded", "netsim.link",
	"network", "seg", "tcpwire",
	"sublayered.dm", "sublayered.cm", "sublayered.rd", "sublayered.osr", "sublayered.other",
	"monolithic.input", "monolithic.output", "monolithic.other",
	"ccontrol", "metrics", "trace", "bufpool", "faults", "verify",
	"workload", "overlay", "harness", "runtime",
}

// layerTable maps a repository package directory, or for the split
// packages a package directory plus file name, to its layer. The test
// in layers_test.go fails when a package under internal/ or a file of
// a split package is missing, so new code cannot silently land in
// runtime.
var layerTable = map[string]string{
	"internal/netsim/backend.go":  "netsim.engine",
	"internal/netsim/sim.go":      "netsim.engine",
	"internal/netsim/realtime.go": "netsim.engine",
	"internal/netsim/sharded.go":  "netsim.sharded",
	"internal/netsim/link.go":     "netsim.link",
	"internal/netsim/bus.go":      "netsim.link",
	"internal/netsim/trace.go":    "trace",
	// The wall-clock substrates carry frames between nodes in place of
	// netsim links.
	"internal/channet": "netsim.link",
	"internal/udpnet":  "netsim.link",

	// Everything below the transport that the workloads cross — routers,
	// forwarding, routing — and the sublayer framework the data link and
	// network instantiate.
	"internal/network":  "network",
	"internal/datalink": "network",
	"internal/sublayer": "network",
	"internal/stuffing": "network",
	"internal/bitio":    "network",
	"internal/core":     "network",

	"internal/transport/seg": "seg",
	"internal/tcpwire":       "tcpwire",

	"internal/transport/sublayered/dm.go":        "sublayered.dm",
	"internal/transport/sublayered/cm.go":        "sublayered.cm",
	"internal/transport/sublayered/timercm.go":   "sublayered.cm",
	"internal/transport/sublayered/isn.go":       "sublayered.cm",
	"internal/transport/sublayered/rd.go":        "sublayered.rd",
	"internal/transport/sublayered/osr.go":       "sublayered.osr",
	"internal/transport/sublayered/cc.go":        "sublayered.other",
	"internal/transport/sublayered/conn.go":      "sublayered.other",
	"internal/transport/sublayered/contracts.go": "sublayered.other",
	"internal/transport/sublayered/doc.go":       "sublayered.other",
	"internal/transport/sublayered/faulthook.go": "sublayered.other",

	"internal/transport/monolithic/input.go":     "monolithic.input",
	"internal/transport/monolithic/output.go":    "monolithic.output",
	"internal/transport/monolithic/tcp.go":       "monolithic.other",
	"internal/transport/monolithic/contracts.go": "monolithic.other",

	"internal/ccontrol": "ccontrol",
	"internal/metrics":  "metrics",
	"internal/trace":    "trace",
	"internal/pcap":     "trace",
	"internal/bufpool":  "bufpool",
	"internal/faults":   "faults",
	"internal/verify":   "verify",
	"internal/workload": "workload",
	// Application-layer code above the transport.
	"internal/overlay":           "overlay",
	"internal/transport/streams": "overlay",

	// Construction, backend selection and experiment runners.
	"internal/transport/harness": "harness",
	"internal/transport":         "harness",
	"internal/backends":          "harness",
	"internal/experiments":       "harness",
	"internal/experiments/cli":   "harness",
	"internal/fuzzer":            "harness",
	"internal/offload":           "harness",
}

// modulePrefix is the import-path prefix of the program under test.
const modulePrefix = "repro/"

// frameLayer returns the layer of a stack frame given its function
// symbol and source file, and false when the frame is not repository
// code. The benchmark's own frames (package main) count as harness:
// they wrap the program's entry points.
func frameLayer(function, file string) (string, bool) {
	pkg := symbolPackage(function)
	if pkg == "main" {
		return "harness", true
	}
	dir, ok := strings.CutPrefix(pkg, modulePrefix)
	if !ok {
		return "", false
	}
	if l, ok := layerTable[dir+"/"+path.Base(file)]; ok {
		return l, true
	}
	if l, ok := layerTable[dir]; ok {
		return l, true
	}
	// Unmapped repository code (the table test catches it first).
	return "runtime", true
}

// symbolPackage extracts the import path from a Go function symbol
// such as "repro/internal/netsim.(*Simulator).Step" or a generic
// instantiation "repro/internal/x.F[go.shape.int]".
func symbolPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
