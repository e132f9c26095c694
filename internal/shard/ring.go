// Package shard scales the self-securing drive horizontally: a
// consistent-hash router fronts N independent Drive instances — each
// with its own segment log, cleaner, group-commit pipeline, audit log,
// and detection window — behind the single-drive protocol: Router.Do is
// an s4rpc.Handler over one s4rpc.Handler per shard. Per-object
// operations route to exactly one shard; whole-drive operations
// scatter-gather with bounded fan-out, per-shard deadlines, and typed
// partial-failure errors (DESIGN.md §13).
package shard

import (
	"encoding/binary"
	"fmt"
	"sort"

	"s4/internal/types"
)

// DefaultVnodes is the virtual-node count per shard. 256 points per
// shard keeps the relative spread of shard load around 1/√256 ≈ 6%
// (see the uniformity property test) while a 16-shard ring stays at
// 4096 points — one binary search over a small sorted slice per route.
const DefaultVnodes = 256

// Ring is a deterministic consistent-hash ring over object IDs.
//
// Layout contract (pinned by the golden-vector test, and load-bearing:
// remapping an ID moves where its data is EXPECTED to live, orphaning
// history written under the old mapping):
//
//   - each shard s contributes Vnodes points: fmix64 applied to the
//     FNV-1a 64 hash of the ASCII label "s4shard/<s>/<v>" for v in
//     [0, Vnodes);
//   - an object ID hashes as fmix64 of the FNV-1a 64 hash of its 8
//     big-endian bytes — the finalizer matters: FNV alone maps
//     sequential IDs to hashes a few parts per million apart, piling
//     whole allocation runs onto one arc, while fmix64's full
//     avalanche spreads them across the ring (the uniformity property
//     test pins this);
//   - an ID belongs to the shard owning the first ring point at or
//     clockwise after the ID's hash, wrapping at the top;
//   - ties on a point hash break toward the lower shard index, then
//     the lower vnode index (deterministic, though unobserved in
//     practice for 64-bit FNV).
//
// Because every point depends only on (shard index, vnode index), a
// rebuild with the same shard count reproduces the identical mapping,
// and growing the ring from k to k' shards moves an ID only if a NEW
// shard's point landed on its arc — never between surviving shards.
type Ring struct {
	shards int
	vnodes int
	points []ringPoint // sorted by (hash, shard, vnode)
}

type ringPoint struct {
	hash  uint64
	shard int
	vnode int
}

// NewRing builds the ring for the given shard count. vnodes <= 0
// selects DefaultVnodes; changing vnodes changes the mapping, so it is
// part of a deployment's layout contract.
func NewRing(shards, vnodes int) (*Ring, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("shard: ring needs at least one shard: %w", types.ErrInval)
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{shards: shards, vnodes: vnodes}
	r.points = make([]ringPoint, 0, shards*vnodes)
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(s, v), shard: s, vnode: v})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		if a.shard != b.shard {
			return a.shard < b.shard
		}
		return a.vnode < b.vnode
	})
	return r, nil
}

// Shards returns the shard count the ring was built for.
func (r *Ring) Shards() int { return r.shards }

// Vnodes returns the virtual-node count per shard.
func (r *Ring) Vnodes() int { return r.vnodes }

// Shard maps an object ID to its shard. Reserved objects (below
// types.FirstUserObject: the audit object, the partition table) live
// on shard 0 by definition — they are drive metadata, not ring
// citizens, and pinning them keeps whole-drive metadata operations
// single-homed.
func (r *Ring) Shard(id types.ObjectID) int {
	if id < types.FirstUserObject {
		return 0
	}
	h := idHash(id)
	// First point with hash >= h, wrapping to points[0].
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// pointHash is the ring position of shard s's v-th virtual node.
func pointHash(s, v int) uint64 {
	return fmix64(fnv1a64([]byte(fmt.Sprintf("s4shard/%d/%d", s, v))))
}

// idHash is the ring position an object ID routes from.
func idHash(id types.ObjectID) uint64 {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(id))
	return fmix64(fnv1a64(b[:]))
}

// fmix64 is the murmur3 64-bit finalizer: a bijective mixer in which
// every input bit avalanches to every output bit. Spelled out, like
// fnv1a64, so the layout contract is self-contained.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// fnv1a64 is FNV-1a spelled out rather than hash/fnv so the layout
// contract is visible in one screen of code and cannot drift with the
// standard library.
func fnv1a64(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
