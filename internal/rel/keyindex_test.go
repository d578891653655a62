package rel

import (
	"math/rand"
	"testing"
)

// The key-index model test: random streams of adds, probes and deletes run
// against a keyIndex and a map from each value to its hash. The values are
// their own keys — a probe matches a value by comparing it — and the hashes
// are drawn from a few values homed at both ends of a small table, so runs
// wrap past the last slot, keys share hashes and homes, and deletes shift
// slots back across the wrap. After every op the index must pass check and hold
// exactly the model: each value found under its hash, no absent value
// found.

// keyIndexModel drives one keyIndex against the model.
type keyIndexModel struct {
	t     testing.TB
	x     keyIndex
	model map[int32]uint32
}

// find probes for v under hash, leaving p on v's slot when found.
func (m *keyIndexModel) find(v int32, hash uint32) (keyProbe, bool) {
	p := m.x.probe(hash)
	for got, ok := m.x.next(&p); ok; got, ok = m.x.next(&p) {
		if got == v {
			return p, true
		}
	}
	return p, false
}

// do runs one op: a control byte picks add-or-delete, the value and its
// hash.
func (m *keyIndexModel) do(op, q byte) {
	m.t.Helper()
	v := int32(q % 48)
	// Hashes 0..3 and the top of a 2^k table: homes at both ends, so runs
	// wrap; the high bits only matter once the table grows past them.
	hash := uint32(op>>2)%8 - 4 + uint32(q>>6)<<8
	if h, ok := m.model[v]; ok {
		hash = h
	}
	p, found := m.find(v, hash)
	_, want := m.model[v]
	if found != want {
		m.t.Fatalf("value %d under hash %#x: found %v, the model %v", v, hash, found, want)
	}
	switch {
	case op&3 != 0 && !found:
		m.x.put(&p, v)
		m.model[v] = hash
	case op&3 == 0 && found:
		m.x.del(&p)
		delete(m.model, v)
	}
	m.check()
}

// check holds the index against the model.
func (m *keyIndexModel) check() {
	m.t.Helper()
	if err := m.x.check(); err != nil {
		m.t.Fatal(err)
	}
	if m.x.Len() != len(m.model) {
		m.t.Fatalf("index holds %d values, the model %d", m.x.Len(), len(m.model))
	}
	for v, hash := range m.model {
		if _, ok := m.find(v, hash); !ok {
			m.t.Fatalf("value %d is out of reach under hash %#x", v, hash)
		}
	}
	seen := 0
	m.x.each(func(v int32) bool {
		if _, ok := m.model[v]; !ok {
			m.t.Fatalf("each yields %d, which the model does not hold", v)
		}
		seen++
		return true
	})
	if seen != len(m.model) {
		m.t.Fatalf("each yields %d values, the model holds %d", seen, len(m.model))
	}
}

func runKeyIndex(t testing.TB, data []byte) {
	m := &keyIndexModel{t: t, model: map[int32]uint32{}}
	for ; len(data) >= 2; data = data[2:] {
		m.do(data[0], data[1])
	}
}

func TestKeyIndexModel(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		data := make([]byte, 2*4_000)
		rand.New(rand.NewSource(seed)).Read(data)
		runKeyIndex(t, data)
	}
}

func FuzzKeyIndex(f *testing.F) {
	// Three values homed at the last slot of an 8-slot table and two at the
	// one before, then deletes: the run wraps to slot 2, and the first
	// delete shifts two slots back across the wrap.
	f.Add([]byte{0x0d, 1, 0x0d, 2, 0x0d, 3, 0x09, 4, 0x09, 5, 0x0c, 2, 0x0c, 1})
	f.Add([]byte{0x01, 0, 0x05, 1, 0x09, 2, 0x0d, 3, 0x11, 4, 0x15, 5, 0x19, 6, 0x1d, 7, 0x01, 8, 0x00, 0, 0x04, 4})
	f.Fuzz(func(t *testing.T, data []byte) { runKeyIndex(t, data) })
}

// TestKeyIndexGrowth files 100 000 values under distinct hashes and finds
// every one after the growths, then deletes every other one.
func TestKeyIndexGrowth(t *testing.T) {
	const n = 100_000
	var x keyIndex
	hash := func(v int32) uint32 { return keyHash(EncodeValues(Int(int64(v)))) }
	for v := int32(0); v < n; v++ {
		x.add(hash(v), v)
	}
	find := func(v int32) (keyProbe, bool) {
		p := x.probe(hash(v))
		for got, ok := x.next(&p); ok; got, ok = x.next(&p) {
			if got == v {
				return p, true
			}
		}
		return p, false
	}
	for v := int32(0); v < n; v += 2 {
		p, ok := find(v)
		if !ok {
			t.Fatalf("value %d lost in growth", v)
		}
		x.del(&p)
	}
	if err := x.check(); err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < n; v++ {
		if _, ok := find(v); ok != (v%2 == 1) {
			t.Fatalf("value %d: found %v after deleting the even ones", v, ok)
		}
	}
	if x.Len() != n/2 || len(x.slots) != 1<<18 {
		t.Fatalf("%d values in %d slots, want %d in %d", x.Len(), len(x.slots), n/2, 1<<18)
	}
}

// colliding makes every key hash alike until the test ends (CollideKeyHashes).
func colliding(t testing.TB) { t.Cleanup(CollideKeyHashes()) }
