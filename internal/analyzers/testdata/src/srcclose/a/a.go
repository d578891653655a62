// Package a is the srcclose corpus: span and source lifecycles mirroring
// the obs and exec layers, with leaks on error exits and the sanctioned
// close idioms as negatives.
package a

import "errors"

// Span mirrors obs.Span: opened by StartSpan/Child, released by End, with
// chainable attribute setters.
type Span struct{ depth int }

func StartSpan(name string) *Span { return &Span{} }

func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{depth: s.depth + 1}
}

func (s *Span) SetStr(k, v string) *Span { return s }

func (s *Span) SetInt(k string, v int) *Span { return s }

func (s *Span) End() {}

// Source mirrors exec.Source: opened by NewPipeline, released by Close.
type Source interface {
	Close()
}

type pipe struct{}

func (p *pipe) Close() {}

func NewPipeline(fail bool) (Source, error) {
	if fail {
		return nil, errors.New("a: pipeline build failed")
	}
	return &pipe{}, nil
}

// Program mirrors exec.Program: a compiled pipeline whose Start opens a
// source per run, with NewPipeline's contract (Close on every path, nothing
// to close when err != nil).
type Program struct{}

func (p *Program) Start(fail bool) (Source, error) { return NewPipeline(fail) }

// worker has an unrelated Start: no Source comes back, nothing is tracked.
type worker struct{}

func (w *worker) Start(fail bool) (int, error) { return 0, nil }

func work() error { return nil }

// leakOnError closes the span on the happy path but forgets it on the
// error exit — the exact gap the pass exists for.
func leakOnError() error {
	sp := StartSpan("flush")
	if err := work(); err != nil {
		return err // want `sp opened at line \d+ is not closed on this return path`
	}
	sp.End()
	return nil
}

// leakAtEnd never closes the source; the leak is reported where the
// function falls off the end.
func leakAtEnd() int {
	src, err := NewPipeline(false)
	if err != nil {
		return 0
	}
	_ = src
	return 1 // want `src opened at line \d+ is not closed on this return path`
}

// deferClose is the sanctioned idiom: a deferred release covers every
// path, error exits included.
func deferClose() error {
	src, err := NewPipeline(false)
	if err != nil {
		return err
	}
	defer src.Close()
	sp := StartSpan("drain")
	defer sp.End()
	return work()
}

// chainClose ends the span at the end of an attribute chain on both arms.
func chainClose(rows int) {
	sp := StartSpan("apply")
	if rows == 0 {
		sp.SetStr("result", "noop").End()
		return
	}
	sp.SetInt("rows", rows).End()
}

// nilGuard: a nil child has nothing to close, so the early return after
// the nil check is clean.
func nilGuard(parent *Span) {
	sp := parent.Child("step")
	if sp == nil {
		return
	}
	sp.End()
}

// handOff returns the span: ownership transfers to the caller.
func handOff() *Span {
	sp := StartSpan("outer")
	return sp
}

// closureClose hands the source to a goroutine that closes it: the
// closure owns it now.
func closureClose() error {
	src, err := NewPipeline(false)
	if err != nil {
		return err
	}
	go func() {
		src.Close()
	}()
	return work()
}

// startLeakOnError starts a compiled program and forgets the source on the
// error exit of the drain — the per-run path has NewPipeline's obligation.
func startLeakOnError(p *Program) error {
	src, err := p.Start(false)
	if err != nil {
		return err
	}
	if err := work(); err != nil {
		return err // want `src opened at line \d+ is not closed on this return path`
	}
	src.Close()
	return nil
}

// startClosed closes on every path; the failed Start returns nothing to
// close.
func startClosed(p *Program) error {
	src, err := p.Start(false)
	if err != nil {
		return err
	}
	if err := work(); err != nil {
		src.Close()
		return err
	}
	src.Close()
	return nil
}

// unrelatedStart: a Start that returns no Source opens nothing.
func unrelatedStart(w *worker) error {
	n, err := w.Start(false)
	if err != nil {
		return err
	}
	_ = n
	return nil
}

// registry holds spans that outlive the opening function by design; the
// exemption is vetted in source.
var registry = map[string]*Span{}

func processHeld() {
	sp := StartSpan("held")
	registry["held"] = sp
	//ojvlint:ignore srcclose the registry owns the span and ends it at shutdown
}
