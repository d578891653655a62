// Package obs is the maintenance observability layer: a zero-dependency
// tracing and metrics substrate threaded through the whole maintenance
// pipeline (ojv.Options → view.Options → exec.Context).
//
// A Tracer produces nested spans — view maintain → plan → primary ΔV^D
// eval/apply → per-term secondary clean-up → changeset commit/rollback —
// with monotonic durations, row counts and strategy tags. A Registry
// (metrics.go) holds cheap atomic counters and histograms for executor-level
// accounting (rows scanned, hash probes, λ/δ applications, undo records).
//
// Both types are nil-safe no-ops: every method checks its receiver, so a
// disabled pipeline pays exactly one pointer check per instrumentation
// site. Spans may be started and ended from concurrent worker goroutines
// (a flush maintains independent components on separate workers, and an
// observer may render the forest meanwhile); attaching children is
// mutex-guarded per span.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values are either int64 or
// string; keeping the two cases explicit avoids interface boxing of counts
// on the maintenance path.
type Attr struct {
	Key string
	Str string
	Int int64
	// IsInt distinguishes a numeric attribute from a string one.
	IsInt bool
}

// Value renders the attribute value.
func (a Attr) Value() string {
	if a.IsInt {
		return fmt.Sprintf("%d", a.Int)
	}
	return a.Str
}

// Span is one timed phase of a maintenance run. Spans nest: children are
// attached with Child and must End before their parent does. All methods
// are nil-safe, so code instrumented with an absent tracer costs a pointer
// check per call.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// Tracer collects the root spans of an instrumented run. One tracer may
// record any number of maintenance runs; export and inspection read the
// accumulated forest.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	roots []*Span
}

// NewTracer returns an empty tracer. The zero epoch is set on first use so
// exported timestamps start near zero.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// StartSpan opens a new root span. Returns nil (a valid no-op span) when
// the tracer is nil.
func (t *Tracer) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{name: name, start: time.Now()}
	t.mu.Lock()
	t.roots = append(t.roots, s)
	t.mu.Unlock()
	return s
}

// Roots returns the root spans recorded so far, in start order.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// Reset discards all recorded spans.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.roots = nil
	t.epoch = time.Now()
	t.mu.Unlock()
}

// Child opens a sub-span. Children may be opened from concurrent worker
// goroutines; each must End before the parent ends.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span, fixing its monotonic duration. End is idempotent;
// error paths may End a span that a deferred End closes again.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// EndAll ends s, if still open, and every open span below it, each no
// later than its parent ended. A panic skips the End of every span it
// unwinds through, while deferred Ends still run; the code that contains it
// ends what the panic left open, so the recorded trace stays well-formed.
func (s *Span) EndAll() { s.endBy(time.Time{}) }

// endBy ends s, if still open, no later than limit (the zero time: now),
// then its open descendants no later than s ended.
func (s *Span) endBy(limit time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
		if !limit.IsZero() {
			s.dur = max(min(s.dur, limit.Sub(s.start)), 0)
		}
	}
	end := s.start.Add(s.dur)
	s.mu.Unlock()
	for _, c := range s.Children() {
		c.endBy(end)
	}
}

// SetInt attaches an integer attribute (row counts, worker counts) and
// returns the span for chaining.
func (s *Span) SetInt(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Int: v, IsInt: true})
	s.mu.Unlock()
	return s
}

// SetStr attaches a string attribute (strategy tags, table names) and
// returns the span for chaining.
func (s *Span) SetStr(key, v string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Str: v})
	s.mu.Unlock()
	return s
}

// Name returns the span's name ("" for a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the span's monotonic duration (0 until End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// Ended reports whether End has run.
func (s *Span) Ended() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ended
}

// Children returns the attached sub-spans in attach order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Attrs returns the span's attributes in set order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// AttrInt returns the last integer attribute with the given key.
func (s *Span) AttrInt(key string) (int64, bool) {
	for i := len(s.Attrs()) - 1; i >= 0; i-- {
		if a := s.Attrs()[i]; a.Key == key && a.IsInt {
			return a.Int, true
		}
	}
	return 0, false
}

// AttrStr returns the last string attribute with the given key.
func (s *Span) AttrStr(key string) (string, bool) {
	attrs := s.Attrs()
	for i := len(attrs) - 1; i >= 0; i-- {
		if a := attrs[i]; a.Key == key && !a.IsInt {
			return a.Str, true
		}
	}
	return "", false
}

// Find returns the first descendant (depth-first, including s) with the
// given name, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.name == name {
		return s
	}
	for _, c := range s.Children() {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// Validate checks that the span tree rooted at s is well-formed: every span
// has ended, no child started before its parent, and no child's duration
// exceeds its parent's. It returns the first violation.
func (s *Span) Validate() error {
	if s == nil {
		return nil
	}
	if !s.Ended() {
		return fmt.Errorf("obs: span %s never ended", s.name)
	}
	for _, c := range s.Children() {
		if c.start.Before(s.start) {
			return fmt.Errorf("obs: span %s starts before its parent %s", c.name, s.name)
		}
		if !c.Ended() {
			return fmt.Errorf("obs: span %s (child of %s) never ended", c.name, s.name)
		}
		if c.Duration() > s.Duration() {
			return fmt.Errorf("obs: span %s duration %s exceeds parent %s duration %s",
				c.name, c.Duration(), s.name, s.Duration())
		}
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// RenderTree renders the span forest as an indented text tree. When
// withDurations is false the output is fully deterministic (names and
// attributes only), which is what the golden-trace tests commit.
func RenderTree(roots []*Span, withDurations bool) string {
	var b strings.Builder
	for _, r := range roots {
		renderSpan(&b, r, 0, withDurations)
	}
	return b.String()
}

func renderSpan(b *strings.Builder, s *Span, depth int, withDurations bool) {
	if s == nil {
		return
	}
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(s.Name())
	// Attributes print sorted by key so insertion order never leaks into
	// goldens.
	attrs := s.Attrs()
	sort.SliceStable(attrs, func(i, j int) bool { return attrs[i].Key < attrs[j].Key })
	for _, a := range attrs {
		fmt.Fprintf(b, " %s=%s", a.Key, a.Value())
	}
	if withDurations {
		fmt.Fprintf(b, " (%s)", s.Duration().Round(time.Microsecond))
	}
	b.WriteByte('\n')
	for _, c := range s.Children() {
		renderSpan(b, c, depth+1, withDurations)
	}
}
