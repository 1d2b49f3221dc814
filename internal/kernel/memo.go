package kernel

import (
	"slices"

	"rckalign/internal/costmodel"
	"rckalign/internal/geom"
)

// Memo interns short int32 word strings — the bitset of an aligned-index
// set, an alignment, the bits of a transform — and numbers the distinct
// ones 0, 1, 2, ... in arrival order, so a comparison stage that is a
// pure function of such a key keeps its results in a slice indexed by
// that number and evaluates each distinct input once (DESIGN.md §17).
// Keys live back to back in one arena and are found by open addressing;
// a hash match is always confirmed word for word, so a collision can
// cost time but never an answer. Buffers grow on demand, survive Reset
// and are never shrunk: a warm workspace interns without allocating.
type Memo struct {
	words  []int32  // every key, back to back
	ends   []int32  // ends[id] is where key id stops in words
	hashes []uint32 // hashes[id], kept so growing the slots rehashes no key
	slots  []int32  // open addressing over ids: id+1, or 0 for a free slot
	limit  int      // most words the arena may hold
}

// minSlots is the slot count after Reset: clearing it is all a Reset
// costs, however large the table grew before.
const minSlots = 64

// Reset empties the memo and bounds its arena to limit key words.
func (m *Memo) Reset(limit int) {
	m.words, m.ends, m.hashes = m.words[:0], m.ends[:0], m.hashes[:0]
	m.slots = grow(m.slots, minSlots)
	clear(m.slots)
	m.limit = limit
}

// Free is the number of key words the arena can still take.
func (m *Memo) Free() int { return m.limit - len(m.words) }

// Key returns key id. The slice aliases the arena: valid until Reset.
func (m *Memo) Key(id int) []int32 {
	start := int32(0)
	if id > 0 {
		start = m.ends[id-1]
	}
	return m.words[start:m.ends[id]]
}

// Intern returns the number of key, adding it when it is new; hit
// reports whether it was already held. A new key that would take the
// arena past its limit is not added and gets id -1: the caller computes
// and records nothing.
func (m *Memo) Intern(key []int32) (id int, hit bool) {
	h := uint32(2166136261)
	for _, w := range key {
		h = (h ^ uint32(w)) * 16777619
	}
	h ^= h >> 15
	mask := len(m.slots) - 1
	i := int(h) & mask
	for ; m.slots[i] != 0; i = (i + 1) & mask {
		if id := int(m.slots[i] - 1); m.hashes[id] == h && slices.Equal(m.Key(id), key) {
			return id, true
		}
	}
	if len(key) > m.Free() {
		return -1, false
	}
	id = len(m.ends)
	m.words = append(m.words, key...)
	m.ends = append(m.ends, int32(len(m.words)))
	m.hashes = append(m.hashes, h)
	m.slots[i] = int32(id + 1)
	if 2*len(m.ends) > len(m.slots) {
		m.slots = grow(m.slots, 2*len(m.slots))
		clear(m.slots)
		mask = len(m.slots) - 1
		for id, h := range m.hashes {
			i := int(h) & mask
			for m.slots[i] != 0 {
				i = (i + 1) & mask
			}
			m.slots[i] = int32(id + 1)
		}
	}
	return id, false
}

// Table is a Memo with one value of type V per key.
type Table[V any] struct {
	Memo
	Vals []V // indexed by key id
}

// Reset empties the table and bounds its key arena to limit words.
func (t *Table[V]) Reset(limit int) {
	t.Memo.Reset(limit)
	t.Vals = t.Vals[:0]
}

// Slot interns key and returns its id and value slot; hit reports
// whether the key was already held (a new key's slot is zeroed). At the
// arena limit a new key gets (-1, nil, false). The pointer is valid
// until the next Slot or Reset.
func (t *Table[V]) Slot(key []int32) (id int, v *V, hit bool) {
	id, hit = t.Intern(key)
	if id < 0 {
		return id, nil, false
	}
	if !hit {
		var zero V
		t.Vals = append(t.Vals, zero)
	}
	return id, &t.Vals[id], hit
}

// MemoWords is the key-arena limit of every compare-scoped table (4 MB
// of keys): far above what a comparison of thousand-residue chains
// interns, so it only bounds a workspace's footprint on hostile input.
const MemoWords = 1 << 20

// SearchNode is one aligned-index set in the trajectory graph of a
// tmscore rotation search: what superposing the set and re-collecting
// the pairs within the cutoff costs and which set it leads to.
type SearchNode struct {
	Next  int32 // the successor set's node; -1 until this set is superposed
	Size  int32 // pairs in the set: the Kabsch points of its step
	Evals int64 // score evaluations its step charges (n per relaxation round)
}

// SearchedAlignment is what tmalign's detailed search returned for one
// alignment and what it charged.
type SearchedAlignment struct {
	TM  float64
	Tr  geom.Transform
	Ops costmodel.Counter
}

// DiagonalScore is the fast score of one gapless diagonal and what
// computing it charged.
type DiagonalScore struct {
	Known bool
	Score float64
	Ops   costmodel.Counter
}
