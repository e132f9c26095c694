package core

import (
	"container/list"
	"sync"

	"s4/internal/types"
)

// reconCache memoizes reconstructed historical inodes (DESIGN.md
// §12.2). Written versions are immutable, so a reconstruction is a pure
// function of the object and the resolved version; each cache entry
// records the validity interval [from, to) its inode answers for (from:
// the stop entry's time; to: the oldest newer entry's time), and any
// later lookup inside that interval would walk to the identical state.
//
// Entries go stale only when the cleaner or Flush removes the version
// (or relocates/frees blocks it references); both run under the
// exclusive drive lock and call dropObject/dropBelow before any block
// is freed, while lookups happen under the shared drive lock — so a
// served inode's blocks are pinned for as long as the reader's shared
// hold lasts, exactly like a fresh walk's.
//
// Like blockCache it is internally synchronized and a leaf in the lock
// hierarchy: no other lock is acquired while mu is held. Cached inodes
// are shared between callers and MUST NOT be mutated.
type reconCache struct {
	mu       sync.Mutex
	capBytes int64
	curBytes int64
	lru      *list.List                         // front = most recent; values are *reconEnt
	byObj    map[types.ObjectID][]*list.Element // per object, ascending by from
	// epochs fences inserts against invalidation (DESIGN.md §16): a
	// walk captures its object's epoch when it snapshots, and put
	// discards results whose epoch is stale. Needed because delta
	// conversion frees history blocks under the *shared* drive lock, so
	// a lock-free walk can be in flight across the invalidation.
	epochs map[types.ObjectID]uint64

	hits, misses int64
}

type reconEnt struct {
	id       types.ObjectID
	from, to types.Timestamp // answers at ∈ [from, to)
	ino      *Inode
	bytes    int64
}

func newReconCache(capBytes int64) *reconCache {
	return &reconCache{
		capBytes: capBytes,
		lru:      list.New(),
		byObj:    make(map[types.ObjectID][]*list.Element),
		epochs:   make(map[types.ObjectID]uint64),
	}
}

// epoch returns id's current invalidation epoch; pass it back to put.
func (c *reconCache) epoch(id types.ObjectID) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epochs[id]
}

// inodeFootprint estimates the in-memory size of a reconstructed inode
// for cache accounting: struct plus attr bytes, ACL entries, and block
// map entries (map overhead dominates the 16 payload bytes).
func inodeFootprint(in *Inode) int64 {
	return 256 + int64(len(in.Attr)) + 24*int64(len(in.ACL)) + 64*int64(in.NumBlocks())
}

// get returns the cached inode answering (id, at), or nil. The result
// is shared: callers must treat it as read-only.
func (c *reconCache) get(id types.ObjectID, at types.Timestamp) *Inode {
	if c.capBytes <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ents := c.byObj[id]
	// Last interval starting at or before at.
	lo, hi := 0, len(ents)
	for lo < hi {
		mid := (lo + hi) / 2
		if ents[mid].Value.(*reconEnt).from <= at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		c.misses++
		return nil
	}
	ent := ents[lo-1].Value.(*reconEnt)
	if at >= ent.to {
		c.misses++
		return nil
	}
	c.lru.MoveToFront(ents[lo-1])
	c.hits++
	return ent.ino
}

// put inserts a reconstruction valid on [from, to). Intervals derived
// from walks of the same chain are either identical, share their start
// (a head-state interval bounded by two different snapshot clocks), or
// are disjoint; an insert matching an existing start just extends its
// bound, and anything else overlapping is dropped rather than risk
// shadowing a fresher entry.
func (c *reconCache) put(id types.ObjectID, from, to types.Timestamp, in *Inode, epoch uint64) {
	if c.capBytes <= 0 || to <= from {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epochs[id] != epoch {
		return // invalidated while the walk ran; blocks may be freed
	}
	ents := c.byObj[id]
	lo, hi := 0, len(ents)
	for lo < hi {
		mid := (lo + hi) / 2
		if ents[mid].Value.(*reconEnt).from <= from {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 {
		prev := ents[lo-1].Value.(*reconEnt)
		if prev.from == from {
			if to > prev.to {
				prev.to = to
			}
			c.lru.MoveToFront(ents[lo-1])
			return
		}
		if from < prev.to {
			return // overlaps an existing interval; keep the incumbent
		}
	}
	if lo < len(ents) && to > ents[lo].Value.(*reconEnt).from {
		return // would overlap the successor
	}
	ent := &reconEnt{id: id, from: from, to: to, ino: in, bytes: inodeFootprint(in)}
	el := c.lru.PushFront(ent)
	c.byObj[id] = append(ents[:lo:lo], append([]*list.Element{el}, ents[lo:]...)...)
	c.curBytes += ent.bytes
	for c.curBytes > c.capBytes && c.lru.Len() > 0 {
		back := c.lru.Back()
		c.removeLocked(back)
	}
}

// removeLocked unlinks one entry from the LRU and its object's index.
func (c *reconCache) removeLocked(el *list.Element) {
	ent := el.Value.(*reconEnt)
	c.lru.Remove(el)
	c.curBytes -= ent.bytes
	ents := c.byObj[ent.id]
	for i, e := range ents {
		if e == el {
			ents = append(ents[:i], ents[i+1:]...)
			break
		}
	}
	if len(ents) == 0 {
		delete(c.byObj, ent.id)
	} else {
		c.byObj[ent.id] = ents
	}
}

// drop bumps id's epoch, so no reconstruction begun before it is
// cached, and removes id's cached reconstructions that gone reports.
func (c *reconCache) drop(id types.ObjectID, gone func(*reconEnt) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epochs[id]++
	ents := c.byObj[id]
	kept := ents[:0]
	for _, el := range ents {
		ent := el.Value.(*reconEnt)
		if gone(ent) {
			c.lru.Remove(el)
			c.curBytes -= ent.bytes
			continue
		}
		kept = append(kept, el)
	}
	if len(kept) == 0 {
		delete(c.byObj, id)
	} else {
		c.byObj[id] = kept
	}
}

// dropObject invalidates every cached reconstruction of id — the chain
// was rewritten (Flush), the object reaped, or its blocks relocated.
func (c *reconCache) dropObject(id types.ObjectID) {
	c.drop(id, func(*reconEnt) bool { return true })
}

// dropBelow invalidates reconstructions of id wholly below the new
// history floor: their intervals can no longer be queried (the floor
// precheck rejects them) and their inodes may reference blocks the
// aging pass just freed.
func (c *reconCache) dropBelow(id types.ObjectID, cut types.Timestamp) {
	c.drop(id, func(e *reconEnt) bool { return e.to <= cut })
}

// dropSince invalidates reconstructions of id whose interval starts at
// or after cut: delta conversion or a retention skip just freed blocks
// those inodes reference (every version modified at or after the freed
// block's birth may hold its address).
func (c *reconCache) dropSince(id types.ObjectID, cut types.Timestamp) {
	c.drop(id, func(e *reconEnt) bool { return e.from >= cut })
}

// counters returns the hit/miss totals.
func (c *reconCache) counters() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
