package farm

import "testing"

func TestStructCacheMissThenHit(t *testing.T) {
	sizes := []int{100, 200, 300, 400}
	c := NewStructCache(3, sizes, 0)
	if got := c.Request(1, []int{0, 1}); got != 300 {
		t.Errorf("cold request shipped %d bytes, want 300", got)
	}
	if got := c.Request(1, []int{0, 1}); got != 0 {
		t.Errorf("warm request shipped %d bytes, want 0", got)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 hits / 2 misses", st)
	}
	if st.BytesShipped != 300 || st.BytesSaved != 300 {
		t.Errorf("bytes = %+v", st)
	}
}

func TestStructCachePerSlaveIndependence(t *testing.T) {
	sizes := []int{10, 20}
	c := NewStructCache(2, sizes, 0)
	c.Request(0, []int{0, 1})
	// Slave 3 has its own empty cache: full miss.
	if got := c.Request(3, []int{0, 1}); got != 30 {
		t.Errorf("other slave shipped %d bytes, want 30", got)
	}
	if !c.Resident(0, 0) || !c.Resident(3, 1) {
		t.Error("residency not tracked per slave")
	}
	if c.Resident(7, 0) {
		t.Error("untouched slave reports residency")
	}
}

func TestStructCacheLRUEviction(t *testing.T) {
	sizes := []int{1, 1, 1, 1, 1}
	c := NewStructCache(2, sizes, 0)
	c.Request(0, []int{0, 1}) // resident: {0,1}
	c.Request(0, []int{2})    // evicts 0 (LRU) -> {1,2}
	if c.Resident(0, 0) {
		t.Error("structure 0 should have been evicted")
	}
	if !c.Resident(0, 1) || !c.Resident(0, 2) {
		t.Error("expected {1,2} resident")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
	// A hit refreshes recency: touch 1, then insert 3 -> 2 is the victim.
	c.Request(0, []int{1})
	c.Request(0, []int{3})
	if c.Resident(0, 2) || !c.Resident(0, 1) || !c.Resident(0, 3) {
		t.Error("touch did not refresh LRU order")
	}
}

func TestStructCacheEvictionAvoidsCurrentRequest(t *testing.T) {
	sizes := make([]int, 6)
	for i := range sizes {
		sizes[i] = 1
	}
	// Capacity 3, request 3 new structures while 3 others are resident:
	// the victims must all come from the old set, never the request.
	c := NewStructCache(3, sizes, 0)
	c.Request(0, []int{0, 1, 2})
	c.Request(0, []int{3, 4, 5})
	for id := 3; id <= 5; id++ {
		if !c.Resident(0, id) {
			t.Errorf("structure %d from the current request was evicted", id)
		}
	}
	for id := 0; id <= 2; id++ {
		if c.Resident(0, id) {
			t.Errorf("stale structure %d survived", id)
		}
	}
}

func TestStructCacheCapacityFloor(t *testing.T) {
	c := NewStructCache(0, []int{1, 1}, 0)
	if c.Capacity() != 2 {
		t.Errorf("capacity = %d, want floor of 2", c.Capacity())
	}
	// Both structures of one pair must be able to coexist.
	c.Request(0, []int{0, 1})
	if !c.Resident(0, 0) || !c.Resident(0, 1) {
		t.Error("a pair does not fit in the floored cache")
	}
}

func TestStructCacheCapacityRaisedToMaxRequest(t *testing.T) {
	sizes := make([]int, 8)
	for i := range sizes {
		sizes[i] = 1
	}
	// A configured capacity smaller than the largest batch request is
	// raised so the whole batch stays resident — no structure of the
	// request is evicted right after shipping.
	c := NewStructCache(2, sizes, 5)
	if c.Capacity() != 5 {
		t.Errorf("capacity = %d, want 5 (raised to max request)", c.Capacity())
	}
	c.Request(0, []int{0, 1, 2, 3, 4})
	for id := 0; id <= 4; id++ {
		if !c.Resident(0, id) {
			t.Errorf("structure %d of the oversized batch was evicted", id)
		}
	}
	if st := c.Stats(); st.ForcedReships != 0 || st.Evictions != 0 {
		t.Errorf("stats = %+v, want no evictions", st)
	}

	// EnsureCapacity raises for a later, larger queue and never shrinks.
	c.EnsureCapacity(7)
	if c.Capacity() != 7 {
		t.Errorf("capacity = %d after EnsureCapacity(7)", c.Capacity())
	}
	c.EnsureCapacity(3)
	if c.Capacity() != 7 {
		t.Errorf("EnsureCapacity shrank the cache to %d", c.Capacity())
	}
}

func TestStructCacheOversizedRequestCountsForcedReships(t *testing.T) {
	sizes := make([]int, 6)
	for i := range sizes {
		sizes[i] = 1
	}
	// Bypass the constructor's raise by requesting more structures than
	// the capacity directly: every eviction must victimise a structure
	// of the request itself, and each one is counted as a forced
	// re-ship instead of silently thrashing.
	c := NewStructCache(3, sizes, 0)
	c.Request(0, []int{0, 1, 2, 3, 4})
	st := c.Stats()
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
	if st.ForcedReships != 2 {
		t.Errorf("forced re-ships = %d, want 2 (all victims were in the request)", st.ForcedReships)
	}
}

func TestSlaveLRUAbsentID(t *testing.T) {
	l := &slaveLRU{resident: map[int]bool{}}
	l.ids = append(l.ids, 1, 2)
	l.resident[1] = true
	l.resident[2] = true
	if l.touch(9) {
		t.Error("touch reported an absent id as present")
	}
	if l.remove(9) {
		t.Error("remove reported an absent id as present")
	}
	if len(l.ids) != 2 || !l.resident[1] || !l.resident[2] {
		t.Errorf("absent-id ops disturbed the LRU: ids=%v resident=%v", l.ids, l.resident)
	}
	if !l.remove(1) || len(l.ids) != 1 || l.resident[1] {
		t.Errorf("present-id remove broken: ids=%v resident=%v", l.ids, l.resident)
	}
}
