package rel

import (
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"testing"
)

// spineHash is a degenerate key hash for the trie tests: 39 distinct values
// (b+1)<<(5d), d in 0..12, b in 0..2. Every hash has fragment 0 at all
// depths but d, so the trie is one spine along fragment 0 that splits at
// every depth, and the many keys sharing a hash end in collision buckets
// under chains of single-child nodes.
func spineHash(k string) uint64 {
	x := Hash64([]byte(k)) % 39
	return (x%3 + 1) << (trieBits * (x / 3))
}

// checkTrie verifies the structural invariants trie.go states: bitmaps
// disjoint and matching the array lengths, every key under the fragment
// path its hash spells, every node but the root holding at least two keys,
// and count equal to the number of entries.
func checkTrie[V any](t testing.TB, e *EpochMap[V]) {
	t.Helper()
	var visit func(n *trieNode[V], shift uint, prefix uint64) int
	visit = func(n *trieNode[V], shift uint, prefix uint64) int {
		if shift >= hashBits {
			if n.datamap != 0 || n.nodemap != 0 || len(n.children) != 0 {
				t.Fatalf("collision bucket with maps or children: %+v", n)
			}
			for _, ent := range n.entries {
				if e.hash(ent.key) != prefix {
					t.Fatalf("key %q in the bucket of hash %x, hashes to %x", ent.key, prefix, e.hash(ent.key))
				}
			}
			return len(n.entries)
		}
		if n.datamap&n.nodemap != 0 {
			t.Fatalf("datamap %032b and nodemap %032b overlap", n.datamap, n.nodemap)
		}
		if bits.OnesCount32(n.datamap) != len(n.entries) || bits.OnesCount32(n.nodemap) != len(n.children) {
			t.Fatalf("maps %032b/%032b against %d entries, %d children", n.datamap, n.nodemap, len(n.entries), len(n.children))
		}
		below := (uint64(1) << shift) - 1
		keys, ei, ci := 0, 0, 0
		for frag := uint64(0); frag <= trieMask; frag++ {
			bit := uint32(1) << frag
			switch {
			case n.datamap&bit != 0:
				h := e.hash(n.entries[ei].key)
				if h&below != prefix || h>>shift&trieMask != frag {
					t.Fatalf("key %q (hash %x) stored under prefix %x fragment %d at shift %d", n.entries[ei].key, h, prefix, frag, shift)
				}
				ei++
				keys++
			case n.nodemap&bit != 0:
				under := visit(n.children[ci], shift+trieBits, prefix|frag<<shift)
				if under < 2 {
					t.Fatalf("child node at shift %d holds %d keys", shift+trieBits, under)
				}
				ci++
				keys += under
			}
		}
		return keys
	}
	if got := visit(e.root, 0, 0); got != e.Len() {
		t.Fatalf("trie holds %d keys, Len says %d", got, e.Len())
	}
}

// checkEpoch verifies Get, Range and Len of an epoch against the model.
func checkEpoch(t testing.TB, e *EpochMap[int], model map[string]int, universe []string) {
	t.Helper()
	if e.Len() != len(model) {
		t.Fatalf("epoch %d: Len = %d, model has %d", e.Seq(), e.Len(), len(model))
	}
	for _, k := range universe {
		got, ok := e.Get(k)
		want, wantOK := model[k]
		if ok != wantOK || got != want {
			t.Fatalf("epoch %d: Get(%s) = %d,%v want %d,%v", e.Seq(), k, got, ok, want, wantOK)
		}
	}
	seen := 0
	e.Range(func(k string, v int) bool {
		if want, ok := model[k]; !ok || want != v {
			t.Fatalf("epoch %d: Range yielded %s=%d, model has %d,%v", e.Seq(), k, v, want, ok)
		}
		seen++
		return true
	})
	if seen != len(model) {
		t.Fatalf("epoch %d: Range yielded %d pairs, model has %d", e.Seq(), seen, len(model))
	}
}

// runTrieModel drives random sets, deletes and publishes against a Go map.
// Every pinEvery-th published epoch is pinned with a copy of the model and
// re-verified after pinAge further operations (and whatever is still pinned
// at the end): a published root must read exactly what it was published
// with, however many epochs have been derived from it since.
func runTrieModel(t *testing.T, hash func(string) uint64, nKeys, ops, pinEvery, pinAge int) {
	rng := rand.New(rand.NewSource(17))
	universe := make([]string, nKeys)
	for i := range universe {
		universe[i] = fmt.Sprintf("key-%d", i)
	}
	live := make(map[string]int)
	for _, k := range universe[:nKeys/2] {
		live[k] = -1
	}
	var cur *EpochMap[int]
	if hash == nil {
		cur = NewFullEpoch(1, live, nil)
	} else {
		cur = newFullEpochHashed(1, live, nil, hash)
	}
	checkTrie(t, cur)
	checkEpoch(t, cur, live, universe)

	type pin struct {
		e     *EpochMap[int]
		model map[string]int
		at    int
	}
	var pins []pin
	dirty := make(map[string]struct{})
	lookup := func(k string) (int, bool) { v, ok := live[k]; return v, ok }
	published := 0
	for op := 0; op < ops; op++ {
		k := universe[rng.Intn(nKeys)]
		if rng.Intn(5) < 3 {
			live[k] = op
		} else {
			delete(live, k)
		}
		dirty[k] = struct{}{}
		if rng.Intn(25) != 0 {
			continue
		}
		prev := cur
		cur = PublishEpoch(prev, prev.Seq()+1, dirty, lookup, nil)
		published++
		if cur.Len() != len(live) {
			t.Fatalf("op %d: Len = %d, live %d", op, cur.Len(), len(live))
		}
		for k := range dirty {
			got, ok := cur.Get(k)
			if want, wantOK := live[k]; ok != wantOK || got != want {
				t.Fatalf("op %d: Get(%s) = %d,%v want %d,%v", op, k, got, ok, want, wantOK)
			}
		}
		clear(dirty)
		if published%pinEvery == 0 {
			checkTrie(t, cur)
			pins = append(pins, pin{cur, maps.Clone(live), op})
		}
		for len(pins) > 0 && op-pins[0].at >= pinAge {
			checkEpoch(t, pins[0].e, pins[0].model, universe)
			pins = pins[1:]
		}
	}
	if published < 2*pinEvery {
		t.Fatalf("only %d publishes", published)
	}
	for _, p := range pins {
		checkEpoch(t, p.e, p.model, universe)
	}
	checkTrie(t, cur)
}

func TestEpochTrieModelUnderPin(t *testing.T) {
	runTrieModel(t, nil, 3000, 450_000, 100, 200_000)
}

// TestEpochTrieDegenerateHash runs the model over spineHash, so node
// splits and pull-ups at every depth and the collision buckets run.
func TestEpochTrieDegenerateHash(t *testing.T) {
	runTrieModel(t, spineHash, 600, 450_000, 100, 200_000)
}

// TestEpochTrieBatchPublishUnderPin dirties a large share of a pinned
// epoch's keys in two publishes — updates, then deletes — and checks the
// pin and both derived epochs, early Range stop included.
func TestEpochTrieBatchPublishUnderPin(t *testing.T) {
	live := make(map[string]int)
	var universe []string
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("k%d", i)
		universe = append(universe, k)
		live[k] = i
	}
	e0 := NewFullEpoch(1, live, nil)
	m0 := maps.Clone(live)
	lookup := func(k string) (int, bool) { v, ok := live[k]; return v, ok }

	dirty := make(map[string]struct{})
	for i := 0; i < 150; i++ {
		live[universe[i]] = i + 1000
		dirty[universe[i]] = struct{}{}
	}
	e1 := PublishEpoch(e0, 2, dirty, lookup, nil)
	m1 := maps.Clone(live)

	dirty = make(map[string]struct{})
	for i := 150; i < 300; i++ {
		delete(live, universe[i])
		dirty[universe[i]] = struct{}{}
	}
	// A key inserted and deleted between two publishes is dirty but was
	// never published: resolving it must change nothing.
	dirty["never-there"] = struct{}{}
	e2 := PublishEpoch(e1, 3, dirty, lookup, nil)

	checkEpoch(t, e0, m0, universe)
	checkEpoch(t, e1, m1, universe)
	checkEpoch(t, e2, live, universe)
	checkTrie(t, e2)
	if e2.Seq() != 3 || e2.Len() != 250 {
		t.Fatalf("e2: seq %d len %d", e2.Seq(), e2.Len())
	}
	calls := 0
	e2.Range(func(string, int) bool { calls++; return calls < 7 })
	if calls != 7 {
		t.Fatalf("Range called f %d times after it returned false at 7", calls)
	}
}

// FuzzEpochTrie replays an encoded op-stream against the model. Byte 0
// picks the hash (the real one, or spineHash); then each byte pair is an op
// on one of 256 keys: set, delete, or publish. Every published epoch stays
// pinned and is re-verified at the end.
func FuzzEpochTrie(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 2, 0, 1, 1, 2, 0})
	f.Add([]byte{1, 0, 1, 0, 40, 0, 80, 2, 0, 1, 40, 2, 0, 1, 1, 1, 80, 2, 0})
	universe := make([]string, 256)
	for i := range universe {
		universe[i] = fmt.Sprintf("k%d", i)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		live := map[string]int{universe[3]: 3, universe[4]: 4}
		var cur *EpochMap[int]
		if data[0]%2 == 0 {
			cur = NewFullEpoch(1, live, nil)
		} else {
			cur = newFullEpochHashed(1, live, nil, spineHash)
		}
		type pin struct {
			e     *EpochMap[int]
			model map[string]int
		}
		pins := []pin{{cur, maps.Clone(live)}}
		dirty := make(map[string]struct{})
		lookup := func(k string) (int, bool) { v, ok := live[k]; return v, ok }
		for i := 1; i+1 < len(data); i += 2 {
			k := universe[data[i+1]]
			switch data[i] % 3 {
			case 0:
				live[k] = i
				dirty[k] = struct{}{}
			case 1:
				delete(live, k)
				dirty[k] = struct{}{}
			default:
				cur = PublishEpoch(cur, cur.Seq()+1, dirty, lookup, nil)
				clear(dirty)
				checkTrie(t, cur)
				pins = append(pins, pin{cur, maps.Clone(live)})
			}
		}
		for _, p := range pins {
			checkEpoch(t, p.e, p.model, universe)
		}
	})
}
