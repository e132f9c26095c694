package core

import (
	"sync/atomic"

	"s4/internal/seglog"
)

// segUsage tracks per-segment block occupancy so the cleaner can pick
// victims and know when a segment is reclaimable.
//
//   - live:  blocks belonging to current state (current data blocks,
//     the newest inode checkpoint, in-chain journal sectors, audit
//     blocks not yet aged).
//   - hist:  blocks that are dead in the current version but inside the
//     detection window (the history pool, §3.3). They become free only
//     by aging; no command can release them.
//
// A segment with live == 0 and hist == 0 is reclaimable.
//
// The counters are atomic so per-object operations running in parallel
// under the shared drive lock can account blocks without coordination;
// the cleaner's read-decide-act sequences run under the exclusive
// drive lock, which keeps its victim choices consistent. histTotal and
// liveTotal shadow the per-segment counters so whole-pool queries — the
// throttle reads the history total on every mutation — are O(1) instead
// of a sweep over every segment.
type segUsage struct {
	live      []atomic.Int32
	hist      []atomic.Int32
	liveTotal atomic.Int64
	histTotal atomic.Int64
}

func newSegUsage(nSeg int64) *segUsage {
	return &segUsage{live: make([]atomic.Int32, nSeg), hist: make([]atomic.Int32, nSeg)}
}

func (u *segUsage) liveBorn(seg int64) {
	if seg >= 0 {
		u.live[seg].Add(1)
		u.liveTotal.Add(1)
	}
}

// deprecate moves one block from live to history (it was overwritten,
// truncated away, or its object was deleted).
func (u *segUsage) deprecate(seg int64) {
	if seg >= 0 {
		u.live[seg].Add(-1)
		u.hist[seg].Add(1)
		u.liveTotal.Add(-1)
		u.histTotal.Add(1)
	}
}

// ageOut releases one history block whose deprecating entry left the
// detection window.
func (u *segUsage) ageOut(seg int64) {
	if seg >= 0 {
		u.hist[seg].Add(-1)
		u.histTotal.Add(-1)
	}
}

// undeprecate is the inverse of deprecate: a block the history pool was
// holding returns to live service. The only source is EntRevive — the
// final version's data blocks were moved to history by the matching
// delete and come back intact (§4.2.2 revive-in-window).
func (u *segUsage) undeprecate(seg int64) {
	if seg >= 0 {
		u.hist[seg].Add(-1)
		u.live[seg].Add(1)
		u.histTotal.Add(-1)
		u.liveTotal.Add(1)
	}
}

// freeLive releases a live block that has no history significance
// (a superseded inode checkpoint: the journal can always rebuild
// metadata, so stale checkpoints are disposable, §4.2.2).
func (u *segUsage) freeLive(seg int64) {
	if seg >= 0 {
		u.live[seg].Add(-1)
		u.liveTotal.Add(-1)
	}
}

// reclaimable reports whether seg holds nothing.
func (u *segUsage) reclaimable(seg int64) bool {
	return u.live[seg].Load() <= 0 && u.hist[seg].Load() <= 0
}

// occupancy returns (live, hist) for seg.
func (u *segUsage) occupancy(seg int64) (int32, int32) {
	return u.live[seg].Load(), u.hist[seg].Load()
}

// historyBlocks returns history-pool occupancy in blocks.
func (u *segUsage) historyBlocks() int64 {
	return u.histTotal.Load()
}

// liveBlocks returns live occupancy in blocks.
func (u *segUsage) liveBlocks() int64 {
	return u.liveTotal.Load()
}

// add adjusts seg's counters, and the pool totals with them, by live and
// hist blocks.
func (u *segUsage) add(seg int64, live, hist int32) {
	if seg >= 0 {
		u.live[seg].Add(live)
		u.hist[seg].Add(hist)
		u.liveTotal.Add(int64(live))
		u.histTotal.Add(int64(hist))
	}
}

// blockClass is what one block is to the usage table. Recovery's usage
// rebuild moves each block it accounts from its class in the base to its
// class now (DESIGN.md §14.2); a block named both live and history is
// live, once.
type blockClass uint8

const (
	classNone blockClass = iota
	classHist
	classLive
)

// classCounts is what one block of each class adds to (live, hist).
var classCounts = [...][2]int32{classNone: {0, 0}, classHist: {0, 1}, classLive: {1, 0}}

// move shifts one block of seg from class from to class to.
func (u *segUsage) move(seg int64, from, to blockClass) {
	f, t := classCounts[from], classCounts[to]
	u.add(seg, t[0]-f[0], t[1]-f[1])
}

// segOf is a convenience wrapper used by the drive's accounting paths.
func segOf(log *seglog.Log, addr seglog.BlockAddr) int64 {
	if addr == seglog.NilAddr {
		return -1
	}
	return log.SegOf(addr)
}
