package exec

import (
	"sync"

	"ojv/internal/obs"
	"ojv/internal/rel"
)

// Tee fans one producer pipeline out to n consumers: the producer's batches
// are buffered once (row references only — the batch containers are caller
// scratch and are never retained, per the Batch contract) and each consumer
// replays them at its own pace. The multi-view maintenance planner uses it
// to evaluate a shared ΔV^D subtree once per flush step and feed every
// consuming view's residual plan from the same rows.
//
// Ownership follows the fan-out idiom the srcclose analyzer understands:
// NewTee takes ownership of src, and each handle is owned by its consumer.
// The producer opens lazily at the first handle pull and is closed exactly
// once, when the last handle closes — so a handle that is never pulled (a
// view that errors out before its eval) still releases the producer as long
// as every handle is eventually closed. Handle Close is idempotent.
//
// Handles are safe to pull from concurrent goroutines (all shared state is
// mutex-guarded), though the flush path drains them sequentially, one view
// at a time.
type Tee struct {
	mu  sync.Mutex
	src Source
	// span is the producer span (view.shared.subtree); it ends with the
	// producer's row/batch totals when the last handle closes.
	span *obs.Span

	opened  bool
	openErr error
	done    bool
	nextErr error
	// batches holds the produced row slices, copied out of the producer's
	// scratch batch (rows themselves are shared references, never cloned).
	batches  [][]rel.Row
	produced int64
	consumed int64
	handles  int // handles not yet closed
	closed   bool
}

// NewTee wraps src and returns n consumer handles. The tee owns src; span,
// when non-nil, is the producer span and ends at the final handle close.
func NewTee(src Source, n int, span *obs.Span) (*Tee, []Source) {
	t := &Tee{src: src, span: span, handles: n}
	hs := make([]Source, n)
	for i := range hs {
		hs[i] = &teeHandle{tee: t}
	}
	return t, hs
}

// ProducedRows returns the rows the producer emitted (complete once every
// handle has closed or drained).
func (t *Tee) ProducedRows() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.produced
}

// ConsumedRows returns the total rows served across all handles.
func (t *Tee) ConsumedRows() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.consumed
}

// ensureOpen opens the producer exactly once; later callers observe the
// stored result.
func (t *Tee) ensureOpen() error {
	if !t.opened {
		t.opened = true
		t.openErr = t.src.Open()
	}
	return t.openErr
}

// produce makes batch i available, pulling the producer forward as needed.
// It reports false when the producer is exhausted before batch i exists.
// Caller holds t.mu.
func (t *Tee) produce(i int) (bool, error) {
	if err := t.ensureOpen(); err != nil {
		return false, err
	}
	var scratch Batch
	for i >= len(t.batches) {
		if t.nextErr != nil {
			return false, t.nextErr
		}
		if t.done {
			return false, nil
		}
		ok, err := t.src.Next(&scratch)
		if err != nil {
			t.nextErr = err
			return false, err
		}
		if !ok {
			t.done = true
			return false, nil
		}
		if scratch.Len() == 0 {
			continue // tolerate occasional empty batches without recording them
		}
		// The batch container is the producer's scratch, overwritten by the
		// next Next: copy the slice, keep only the row references.
		t.batches = append(t.batches, append([]rel.Row(nil), scratch.Rows...))
		t.produced += int64(scratch.Len())
	}
	return true, nil
}

// handleClosed releases one handle; the last one closes the producer and
// ends the producer span.
func (t *Tee) handleClosed() error {
	t.handles--
	if t.handles > 0 || t.closed {
		return nil
	}
	t.closed = true
	err := t.src.Close()
	endSpan(t.span, t.produced, int64(len(t.batches)))
	return err
}

// teeHandle is one consumer's view of the tee. It satisfies the Source
// contract: Open before Next, Close on every path, Close idempotent.
type teeHandle struct {
	tee    *Tee
	pos    int
	closed bool
}

func (h *teeHandle) Schema() rel.Schema { return h.tee.src.Schema() }

func (h *teeHandle) Open() error {
	// The producer opens lazily at the first pull: a handle Open must stay
	// cheap even when the consumer's own Open fails later and the handle is
	// closed without ever being pulled.
	return nil
}

func (h *teeHandle) Next(b *Batch) (bool, error) {
	h.tee.mu.Lock()
	defer h.tee.mu.Unlock()
	ok, err := h.tee.produce(h.pos)
	if err != nil || !ok {
		return false, err
	}
	rows := h.tee.batches[h.pos]
	h.pos++
	b.Reset()
	b.Rows = append(b.Rows, rows...)
	h.tee.consumed += int64(len(rows))
	return true, nil
}

func (h *teeHandle) Close() error {
	h.tee.mu.Lock()
	defer h.tee.mu.Unlock()
	if h.closed {
		return nil
	}
	h.closed = true
	return h.tee.handleClosed()
}

// consumeSource is the in-pipeline face of a bound shared subtree: Start
// substitutes it for the cut node, so the consuming view's plan gets a
// proper operator span (exec.shared.consume) and per-view row accounting
// while the handle does the actual serving.
type consumeSource struct {
	opBase
	in Source
}

func (s *consumeSource) Open() error { return s.in.Open() }

func (s *consumeSource) Next(b *Batch) (bool, error) {
	ok, err := s.in.Next(b)
	if err != nil || !ok {
		return false, err
	}
	s.observe(b)
	return true, nil
}

func (s *consumeSource) Close() error {
	err := s.in.Close()
	s.finish()
	return err
}
