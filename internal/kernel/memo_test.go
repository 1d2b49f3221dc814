package kernel

import (
	"math/rand"
	"slices"
	"testing"
)

func TestMemoInternsDistinctKeysInArrivalOrder(t *testing.T) {
	var m Memo
	m.Reset(MemoWords)
	rng := rand.New(rand.NewSource(1))
	var keys [][]int32
	for len(keys) < 500 { // far past minSlots: the slot table regrows several times
		k := make([]int32, 1+rng.Intn(6))
		for i := range k {
			k[i] = int32(rng.Intn(4)) - 1 // few values: many near-equal keys and prefixes
		}
		id, hit := m.Intern(k)
		if hit {
			if !slices.Equal(keys[id], k) {
				t.Fatalf("key %v hit id %d, which is %v", k, id, keys[id])
			}
			continue
		}
		if id != len(keys) {
			t.Fatalf("new key %v got id %d, want %d", k, id, len(keys))
		}
		keys = append(keys, k)
	}
	if len(m.ends) != len(keys) {
		t.Fatalf("Len = %d, want %d", len(m.ends), len(keys))
	}
	for id, k := range keys {
		if got, hit := m.Intern(k); !hit || got != id || !slices.Equal(m.Key(id), k) {
			t.Fatalf("key %d %v: Intern = (%d, %v), Key = %v", id, k, got, hit, m.Key(id))
		}
	}
}

func TestMemoLimitRefusesNewKeysOnly(t *testing.T) {
	var m Memo
	m.Reset(5)
	if id, hit := m.Intern([]int32{1, 2, 3}); id != 0 || hit {
		t.Fatalf("first key: (%d, %v)", id, hit)
	}
	if id, _ := m.Intern([]int32{4, 5, 6}); id != -1 {
		t.Fatalf("a key past the limit got id %d, want -1", id)
	}
	if id, hit := m.Intern([]int32{1, 2, 3}); id != 0 || !hit {
		t.Fatalf("a held key at the limit: (%d, %v), want (0, true)", id, hit)
	}
	if id, hit := m.Intern([]int32{7, 8}); id != 1 || hit || m.Free() != 0 {
		t.Fatalf("a key that exactly fits: (%d, %v), free %d", id, hit, m.Free())
	}
	m.Reset(5)
	if id, hit := m.Intern([]int32{4, 5, 6}); id != 0 || hit || len(m.ends) != 1 {
		t.Fatalf("after Reset: (%d, %v), Len %d", id, hit, len(m.ends))
	}
}

func TestTableSlotsAreZeroedAndWarmTablesDoNotAllocate(t *testing.T) {
	var tab Table[[2]int]
	fill := func() {
		tab.Reset(MemoWords)
		for i := int32(0); i < 300; i++ {
			id, v, hit := tab.Slot([]int32{i, i >> 3})
			if hit || *v != ([2]int{}) {
				t.Fatalf("key %d: hit %v, slot %v, want a fresh zero slot", i, hit, *v)
			}
			*v = [2]int{id, 1}
		}
		if _, v, hit := tab.Slot([]int32{7, 0}); !hit || *v != ([2]int{7, 1}) {
			t.Fatalf("held key: hit %v, slot %v", hit, *v)
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(3, fill); allocs != 0 {
		t.Errorf("refilling a warm table allocates %v objects, want 0", allocs)
	}
}
