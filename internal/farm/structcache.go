package farm

// StructCache is the master-side model of the slaves' bounded structure
// caches. Each slave keeps an LRU of up to `capacity` structures in its
// private memory; when the master dispatches a job it consults this
// model and ships only the structures the target slave is missing, so
// the request wire size becomes header + miss bytes instead of both
// structures every time.
//
// Determinism: the model is updated exactly once per dispatch, inside
// the job's SizeFor hook, which the simulation invokes in deterministic
// event order — so two identical runs see identical hit/miss sequences.
// The fill is optimistic: a request the fault injector drops on the
// wire still marks its structures resident, because the master has no
// acknowledgement protocol to learn otherwise. That can only
// under-charge the wire on the retry of a dropped job — a timing-model
// approximation, never a correctness issue (the slave re-receives the
// whole job either way).
type StructCache struct {
	capacity int
	sizes    []int
	slaves   map[int]*slaveLRU
	stats    CacheStats
}

// CacheStats counts what the structure-cache model did over a run.
type CacheStats struct {
	// Hits counts structure references served from a slave's cache.
	Hits int64
	// Misses counts structure references that had to ship coordinates.
	Misses int64
	// Evictions counts structures dropped from full caches.
	Evictions int64
	// ForcedReships counts evictions that had to victimise a structure
	// of the current request because everything resident belonged to
	// it — the cache cannot hold the request, so the evicted structure
	// will re-ship on its next use. Zero when every request fits
	// (NewStructCache raises the capacity to the largest request).
	ForcedReships int64
	// BytesShipped sums the coordinate bytes actually sent (misses).
	BytesShipped int64
	// BytesSaved sums the coordinate bytes avoided (hits).
	BytesSaved int64
}

// slaveLRU is one slave's resident set, least recently used first.
type slaveLRU struct {
	ids      []int
	resident map[int]bool
}

// touch moves id to most-recently-used and reports whether it was
// present; an absent id is left untouched (resident set unchanged).
func (l *slaveLRU) touch(id int) bool {
	for i, v := range l.ids {
		if v == id {
			l.ids = append(append(l.ids[:i:i], l.ids[i+1:]...), id)
			return true
		}
	}
	return false
}

// remove drops id from the LRU and resident set, reporting whether it
// was present — so a caller removing an absent id learns the model and
// its resident map never went out of sync.
func (l *slaveLRU) remove(id int) bool {
	for i, v := range l.ids {
		if v == id {
			l.ids = append(l.ids[:i:i], l.ids[i+1:]...)
			delete(l.resident, id)
			return true
		}
	}
	return false
}

// NewStructCache builds the cache model: capacity structures per slave,
// sizes[i] giving structure i's coordinate wire size. The capacity is
// raised to at least 2 (a pair's two structures must fit) and to
// maxRequest, the largest number of distinct structures any single
// request will reference — a batch must fit in the cache whole, or the
// eviction loop would evict structures of the request that just shipped
// them.
func NewStructCache(capacity int, sizes []int, maxRequest int) *StructCache {
	capacity = max(capacity, 2, maxRequest)
	return &StructCache{capacity: capacity, sizes: sizes, slaves: map[int]*slaveLRU{}}
}

// EnsureCapacity raises the modelled per-slave capacity to fit a
// request of maxRequest distinct structures (chips preparing
// multiple job queues size the shared cache to the largest batch seen
// so far). Capacity never shrinks, so earlier accounting stays valid.
func (c *StructCache) EnsureCapacity(maxRequest int) {
	c.capacity = max(c.capacity, maxRequest)
}

// Capacity returns the modelled per-slave capacity in structures.
func (c *StructCache) Capacity() int { return c.capacity }

// Stats returns the accumulated cache statistics.
func (c *StructCache) Stats() CacheStats { return c.stats }

// Request models shipping the given structures to a slave and returns
// the coordinate bytes that must actually cross the NoC (the misses).
// Hits are touched to most-recently-used; misses are inserted and the
// LRU evicted down to capacity, preferring victims outside the current
// request so one oversized batch cannot thrash itself.
func (c *StructCache) Request(slave int, structs []int) int {
	lru := c.slaves[slave]
	if lru == nil {
		lru = &slaveLRU{resident: map[int]bool{}}
		c.slaves[slave] = lru
	}
	inReq := make(map[int]bool, len(structs))
	ship := 0
	for _, id := range structs {
		inReq[id] = true
		if lru.resident[id] {
			c.stats.Hits++
			c.stats.BytesSaved += int64(c.sizes[id])
			lru.touch(id)
			continue
		}
		c.stats.Misses++
		c.stats.BytesShipped += int64(c.sizes[id])
		ship += c.sizes[id]
		lru.ids = append(lru.ids, id)
		lru.resident[id] = true
	}
	for len(lru.ids) > c.capacity {
		victim := lru.ids[0]
		forced := true
		for _, id := range lru.ids {
			if !inReq[id] {
				victim = id
				forced = false
				break
			}
		}
		if forced {
			// Every resident structure belongs to this request: the
			// victim will re-ship on its next use. Should not happen
			// when capacity >= the largest request (see NewStructCache).
			c.stats.ForcedReships++
		}
		lru.remove(victim)
		c.stats.Evictions++
	}
	return ship
}
