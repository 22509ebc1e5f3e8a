package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry holds instruments under unique hierarchical names. The
// name table is mutex-guarded because registration can happen from
// concurrent shard workers (a transport stack registers its connection
// totals when its first connection opens, and two shards may open
// connections inside the same lookahead window). The instruments themselves stay
// lock-free: each has a single writer (its owning node's shard), and
// snapshots are only taken while the workers are quiescent.
type Registry struct {
	mu     sync.Mutex
	byName map[string]Instrument
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]Instrument)}
}

// Register adopts an existing instrument under name. The name must be
// non-empty and unused; collisions panic because they are wiring bugs
// (two components claiming the same identity), not runtime conditions.
func (r *Registry) Register(name string, in Instrument) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, in)
}

func (r *Registry) register(name string, in Instrument) {
	if name == "" {
		panic("metrics: empty metric name")
	}
	if in == nil {
		panic(fmt.Sprintf("metrics: nil instrument for %q", name))
	}
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric name %q", name))
	}
	r.byName[name] = in
}

// Counter returns the counter registered under name, creating one if
// absent. It panics if name is held by a different instrument kind.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.byName[name]; ok {
		c, isC := in.(*Counter)
		if !isC {
			panic(fmt.Sprintf("metrics: %q is not a counter", name))
		}
		return c
	}
	c := &Counter{}
	r.register(name, c)
	return c
}

// Gauge returns the gauge registered under name, creating one if
// absent. It panics if name is held by a different instrument kind.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.byName[name]; ok {
		g, isG := in.(*Gauge)
		if !isG {
			panic(fmt.Sprintf("metrics: %q is not a gauge", name))
		}
		return g
	}
	g := &Gauge{}
	r.register(name, g)
	return g
}

// Histogram returns the histogram registered under name, creating one
// with the given bounds if absent.
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.byName[name]; ok {
		h, isH := in.(*Histogram)
		if !isH {
			panic(fmt.Sprintf("metrics: %q is not a histogram", name))
		}
		return h
	}
	h := NewHistogram(bounds...)
	r.register(name, h)
	return h
}

// Len returns the number of registered instruments.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byName)
}

// Scope returns a scope that prefixes names with prefix + "/".
func (r *Registry) Scope(prefix string) *Scope {
	return &Scope{reg: r, prefix: prefix}
}

// Snapshot captures every instrument as plain data, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	s := Snapshot{Samples: make([]Sample, 0, len(names))}
	for _, n := range names {
		s.Samples = append(s.Samples, r.byName[n].sample(n))
	}
	return s
}

// SourceName implements Source.
func (r *Registry) SourceName() string { return "metrics" }

// ReportJSON implements Source.
func (r *Registry) ReportJSON() any { return r.Snapshot() }

// ReportText implements Source.
func (r *Registry) ReportText() string { return r.Snapshot().Text() }

// Scope is a named subtree of a registry. A nil *Scope is valid and
// inert: Register is a no-op and the getters hand back detached
// instruments, so components instrument themselves unconditionally and
// work identically with or without a registry attached.
type Scope struct {
	reg    *Registry
	prefix string
}

// Join concatenates name parts with "/", skipping empty parts.
func Join(parts ...string) string {
	kept := parts[:0:0]
	for _, p := range parts {
		if p != "" {
			kept = append(kept, p)
		}
	}
	return strings.Join(kept, "/")
}

// Sub returns a child scope one level down.
func (s *Scope) Sub(name string) *Scope {
	if s == nil {
		return nil
	}
	return &Scope{reg: s.reg, prefix: Join(s.prefix, name)}
}

// Register adopts in under the scope's prefix. No-op on a nil scope.
func (s *Scope) Register(name string, in Instrument) {
	if s == nil {
		return
	}
	s.reg.Register(Join(s.prefix, name), in)
}

// Counter returns (creating if needed) a counter in this scope, or a
// detached counter on a nil scope.
func (s *Scope) Counter(name string) *Counter {
	if s == nil {
		return &Counter{}
	}
	return s.reg.Counter(Join(s.prefix, name))
}

// Gauge returns (creating if needed) a gauge in this scope, or a
// detached gauge on a nil scope.
func (s *Scope) Gauge(name string) *Gauge {
	if s == nil {
		return &Gauge{}
	}
	return s.reg.Gauge(Join(s.prefix, name))
}

// Histogram returns (creating if needed) a histogram in this scope, or
// a detached one on a nil scope.
func (s *Scope) Histogram(name string, bounds ...int64) *Histogram {
	if s == nil {
		return NewHistogram(bounds...)
	}
	return s.reg.Histogram(Join(s.prefix, name), bounds...)
}
