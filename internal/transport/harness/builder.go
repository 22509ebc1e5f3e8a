package harness

import "repro/internal/backends"

// Backend kind names, re-exported from the backend registry so most
// callers only import harness.
const (
	BackendSim     = backends.Sim
	BackendSharded = backends.Sharded
	BackendChan    = backends.Chan
	BackendUDP     = backends.UDP
)

// Realtime reports whether kind runs on the wall clock.
func Realtime(kind string) bool { return backends.Realtime(kind) }

// UDPAvailable reports whether the UDP backend can run here; callers
// skip gracefully where loopback sockets are forbidden.
func UDPAvailable() bool { return backends.UDPAvailable() }
