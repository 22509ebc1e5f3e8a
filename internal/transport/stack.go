// Package transport defines the uniform surface both TCP
// implementations expose: Stack (one host's transport: Listen, Dial,
// Close) and Conn (one connection's byte stream). The sublayered
// connection (*sublayered.Conn, native Fig. 6 wire format or behind
// the §3.1 shim) and the monolithic one (*monolithic.PCB) are Conns
// themselves; their stacks implement Stack through the thin adapters
// in internal/transport/harness, so the experiments, the interop
// matrix and the many-flow workload engine (internal/workload) drive
// either implementation — or both at once — with the same code
// instead of duplicating per-stack construction.
package transport

import "repro/internal/network"

// Conn is the byte-stream surface of one connection, implemented by
// both TCPs. All methods run inside simulator events.
type Conn interface {
	// Write queues bytes, returning how many were accepted (the rest
	// did not fit the send buffer; retry on the writable callback).
	Write(p []byte) int
	// ReadAll drains everything received in order.
	ReadAll() []byte
	// EOF reports the peer finished and everything was read.
	EOF() bool
	// Close ends the outgoing stream.
	Close()
	// State names the connection state ("ESTABLISHED", ...).
	State() string
	// Err returns the terminal error, if the connection died.
	Err() error
	// LocalPort and RemotePort identify the flow; a dialled connection
	// and its accepted peer agree (local here equals remote there), so
	// many-flow drivers can match server-side accepts to client flows.
	LocalPort() uint16
	RemotePort() uint16
	// Callbacks registers the application's event hooks.
	Callbacks(onConnected, onReadable, onWritable func(), onClosed func(error))
}

// Stack is one host's transport implementation.
type Stack interface {
	// Name identifies the implementation ("sublayered", "monolithic",
	// "sublayered+shim").
	Name() string
	// Addr returns the host's network address.
	Addr() network.Addr
	// Listen binds a port; onAccept fires per inbound connection.
	Listen(port uint16, onAccept func(Conn)) error
	// Dial opens a connection.
	Dial(dst network.Addr, port uint16) (Conn, error)
	// Close aborts every open connection and releases every listener.
	Close() error
}
