package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The nil counter is
// a valid no-op, so hot paths can hold a possibly-nil pointer and call Add
// unconditionally.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a lock-free count/sum/max accumulator, cheap enough to
// observe per maintenance run.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64
	max   atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observation.
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Registry holds named counters and histograms. Creation (Counter,
// Histogram) takes a mutex; the returned handles update atomically with no
// further registry involvement, so call sites cache them. All methods are
// nil-safe: a nil registry hands out nil handles, whose updates are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter with the given name, creating it on first
// use. Returns nil (a valid no-op counter) when the registry is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Add is a convenience for one-shot increments outside hot loops: it
// resolves the named counter and adds n. Nil-safe.
func (r *Registry) Add(name string, n int64) {
	if r == nil {
		return
	}
	r.Counter(name).Add(n)
}

// Observe is a convenience for one-shot observations outside hot loops: it
// resolves the named histogram and records v. Nil-safe.
func (r *Registry) Observe(name string, v int64) {
	if r == nil {
		return
	}
	r.Histogram(name).Observe(v)
}

// Histogram returns the histogram with the given name, creating it on
// first use. Returns nil (a valid no-op histogram) when the registry is
// nil.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot returns the current value of every metric as a flat name→value
// map: counters under their own name, histograms expanded into
// name.count / name.sum / name.max.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters)+3*len(r.hists))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, h := range r.hists {
		out[name+".count"] = h.Count()
		out[name+".sum"] = h.Sum()
		out[name+".max"] = h.Max()
	}
	return out
}

// WriteJSON writes the snapshot as a single JSON object with sorted keys —
// the expvar-style export ojbench prints with -metrics.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, name := range names {
		sep := ",\n "
		if i == 0 {
			sep = "\n "
		}
		key, err := json.Marshal(name)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s: %d", sep, key, snap[name]); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n}\n")
	return err
}
