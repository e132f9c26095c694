package core

import (
	"container/list"
	"sync"

	"s4/internal/seglog"
)

// blockCache is an LRU cache of log blocks keyed by address, standing in
// for the drive's buffer cache (the paper's S4 drives ran a 128MB buffer
// cache and a 32MB object cache, §5.1.1). It caches immutable log blocks
// only: data, checkpoint-root, packed-delta and audit blocks, which are
// never rewritten once appended, and journal blocks of sealed segments
// (readJSector never fills from the open segment, the one place a
// journal block is rewritten in place). A fill comes from one of two
// places. seglog.Read verifies what it returns against the checksums in
// the segment's summary. A seal hands over a copy of each journal block of the
// segment it sealed (seglog.Log.SetSealSink), once its device writes
// landed: the very bytes its checksums were computed over and the device
// holds. The seal pins those checksums, so neither RewriteRange nor
// PatchSettled can change such a block again, and its address leaves
// the cache when the segment is released (dropRange). The sink runs
// under the log's mutex, inside an Append or Sync whose caller may hold
// logMu or Drive.mu, so it takes the cache's leaf mutex and nothing else.
//
// A cached address changes meaning in exactly these places, and each
// one invalidates:
//
//   - a block dies on its own — history aged out (ageOutOldLocked,
//     dropLandmarksBelowFloor), delta-converted or skipped by retention
//     (convertOldLocked), erased (flushObjectLocked); a superseded
//     checkpoint, a reaped object's blocks, a relocated data or audit
//     block, a released audit block; a journal block whose last in-chain
//     sector is unlinked (unrefJSector): drop at the site;
//   - a whole segment rejoins the allocator and its addresses will be
//     appended to again (releaseSegmentLocked: the checkpoint barrier,
//     recovery's sweep of segments it counts empty, or at once under
//     UnsafeImmediateReuse): dropRange;
//   - recovery erases an unacknowledged tail from a journal sector of a
//     settled segment in place (truncateJournalSector, the only caller
//     of seglog.PatchSettled), after chain walks may have cached the
//     block: drop at the site.
//
// CheckInvariants compares every cached block it meets with the media,
// so a missed invalidation fails the torture batteries, not a read.
//
// The cache is internally synchronized (its mutex is a leaf in the
// drive's lock hierarchy), so concurrent readers hit it without any
// drive-level exclusive lock.
type blockCache struct {
	mu       sync.Mutex
	capBytes int64
	curBytes int64
	lru      *list.List // front = most recent; values are *cacheEnt
	byAddr   map[seglog.BlockAddr]*list.Element

	// Journal-block lookups are counted apart, so the data-block hit
	// ratio keeps meaning what a client's reads found.
	data, journal cacheCounts
}

type cacheCounts struct{ hits, misses int64 }

type cacheEnt struct {
	addr seglog.BlockAddr
	data []byte
}

func newBlockCache(capBytes int64) *blockCache {
	return &blockCache{
		capBytes: capBytes,
		lru:      list.New(),
		byAddr:   make(map[seglog.BlockAddr]*list.Element),
	}
}

// get returns the cached block, or nil. The returned slice aliases the
// cache's copy and MUST NOT be modified: every reader of the same
// address shares it. Callers that hand data across a trust boundary
// (e.g. readExtent assembling an RPC reply) must copy out of it; the
// drive-internal decoders (journal.DecodeSector, decodeInodeRoot,
// audit.DecodeBlock) only ever parse the bytes. put takes ownership of
// its argument for the same reason — the cache never copies.
// TestBlockCachePoison enforces the stability half of this contract.
func (c *blockCache) get(addr seglog.BlockAddr) []byte { return c.lookup(addr, &c.data) }

// getJournal is get for a journal block, counted in its own pair.
func (c *blockCache) getJournal(addr seglog.BlockAddr) []byte { return c.lookup(addr, &c.journal) }

func (c *blockCache) lookup(addr seglog.BlockAddr, n *cacheCounts) []byte {
	if c.capBytes <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byAddr[addr]; ok {
		c.lru.MoveToFront(el)
		n.hits++
		return el.Value.(*cacheEnt).data
	}
	n.misses++
	return nil
}

// peek returns the cached block without counting the lookup or touching
// the LRU order; the invariant checker uses it.
func (c *blockCache) peek(addr seglog.BlockAddr) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byAddr[addr]; ok {
		return el.Value.(*cacheEnt).data
	}
	return nil
}

// put inserts a block, evicting LRU entries to stay under capacity. The
// cache takes ownership of data.
func (c *blockCache) put(addr seglog.BlockAddr, data []byte) {
	if c.capBytes <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byAddr[addr]; ok {
		ent := el.Value.(*cacheEnt)
		c.curBytes += int64(len(data) - len(ent.data))
		ent.data = data
		c.lru.MoveToFront(el)
	} else {
		el := c.lru.PushFront(&cacheEnt{addr: addr, data: data})
		c.byAddr[addr] = el
		c.curBytes += int64(len(data))
	}
	for c.curBytes > c.capBytes && c.lru.Len() > 0 {
		back := c.lru.Back()
		ent := back.Value.(*cacheEnt)
		c.lru.Remove(back)
		delete(c.byAddr, ent.addr)
		c.curBytes -= int64(len(ent.data))
	}
}

// drop removes one address (cleaner freed its block, or a shared
// journal block was rewritten in place).
func (c *blockCache) drop(addr seglog.BlockAddr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked(addr)
}

func (c *blockCache) dropLocked(addr seglog.BlockAddr) {
	if el, ok := c.byAddr[addr]; ok {
		ent := el.Value.(*cacheEnt)
		c.lru.Remove(el)
		delete(c.byAddr, addr)
		c.curBytes -= int64(len(ent.data))
	}
}

// dropRange removes every cached block with addr in [lo, hi) — used when
// a whole segment rejoins the allocator. When the range dwarfs the cache
// population (huge segments, small cache) walking the map beats walking
// the range.
func (c *blockCache) dropRange(lo, hi seglog.BlockAddr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if hi > lo && uint64(hi-lo) > uint64(len(c.byAddr)) {
		for addr := range c.byAddr {
			if addr >= lo && addr < hi {
				c.dropLocked(addr)
			}
		}
		return
	}
	for addr := lo; addr < hi; addr++ {
		c.dropLocked(addr)
	}
}

// counters returns the hit/miss totals, data blocks and journal blocks
// apart.
func (c *blockCache) counters() (data, journal cacheCounts) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.data, c.journal
}
