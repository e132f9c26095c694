package shard

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"s4/internal/s4rpc"
	"s4/internal/types"
)

// Options tunes a Router. The zero value of every field selects a
// sensible default.
type Options struct {
	// Vnodes is the virtual-node count per shard (layout contract —
	// see Ring). Zero selects DefaultVnodes.
	Vnodes int
	// MaxFan bounds how many shards a scatter-gather operation calls
	// concurrently. Zero selects 4.
	MaxFan int
	// FanTimeout is the per-shard deadline inside a scatter-gather: a
	// shard that has not answered by then is abandoned and reported as
	// a ShardError wrapping ErrShardTimeout. Zero selects 5s.
	FanTimeout time.Duration
}

func (o *Options) fill() {
	if o.MaxFan <= 0 {
		o.MaxFan = 4
	}
	if o.FanTimeout <= 0 {
		o.FanTimeout = 5 * time.Second
	}
}

// Router fronts N shards behind the single-drive op surface: its Do is
// an s4rpc.Handler over shard handlers (s4rpc.Dispatch of a drive, or a
// Remote's Do). Routing invariants (DESIGN.md §13):
//
//   - per-object operations go to exactly one shard, chosen by the
//     consistent-hash ring over the object ID;
//   - object IDs are allocated by the router (an explicit-ID Create on
//     the owning shard), never by a shard itself, so IDs cannot collide
//     across shards and the ring can place an object before any shard
//     has seen it;
//   - partition-table operations and the drive-wide policy read live on
//     shard 0;
//   - whole-drive operations (Sync, Flush, SetWindow, SetPolicy of the
//     default, AuditRead, Scrub, Status, Stats) scatter-gather across
//     every shard with bounded fan-out and per-shard deadlines; a down
//     shard yields a typed *ShardError inside a *PartialError beside
//     whatever partial result the reachable shards produced — never a
//     hang, never a silently truncated result.
//
// A Router is safe for concurrent use whenever its shards are.
type Router struct {
	ring    *Ring
	shards  []s4rpc.Handler
	opts    Options
	nextOID atomic.Uint64
}

// New builds a router over shards (shard i = shards[i]). It seeds the
// router's object-ID allocator from the maximum NextOID across the
// shards, so a router rebuilt over recovered drives never re-issues a
// live ID; every shard must therefore be reachable at construction.
func New(shards []s4rpc.Handler, opts Options) (*Router, error) {
	opts.fill()
	ring, err := NewRing(len(shards), opts.Vnodes)
	if err != nil {
		return nil, err
	}
	r := &Router{ring: ring, shards: shards, opts: opts}
	next := uint64(types.FirstUserObject)
	for i, h := range shards {
		resp, err := h(types.Cred{}, &s4rpc.Request{Op: types.OpStatus})
		if err != nil {
			return nil, &ShardError{Shard: i, Err: err}
		}
		next = max(next, uint64(resp.Status.NextOID))
	}
	r.nextOID.Store(next)
	return r, nil
}

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.shards) }

// ShardOf exposes the ring mapping (tests, tooling, s4ctl).
func (r *Router) ShardOf(id types.ObjectID) int { return r.ring.Shard(id) }

func (r *Router) owner(id types.ObjectID) s4rpc.Handler { return r.shards[r.ring.Shard(id)] }

// Do sends req to the object's shard, to shard 0, or to every shard
// with the replies merged by op. It is the router's s4rpc.Handler.
func (r *Router) Do(cred types.Cred, req *s4rpc.Request) (*s4rpc.Response, error) {
	switch req.Op {
	case types.OpCreate:
		return r.create(cred, req)
	case types.OpDelete, types.OpRead, types.OpWrite, types.OpAppend, types.OpTruncate,
		types.OpGetAttr, types.OpSetAttr, types.OpGetACLByUser, types.OpGetACLByIndex,
		types.OpSetACL, types.OpFlushO, types.OpListVersions, types.OpRevert:
		return r.owner(req.Obj)(cred, req)
	case types.OpSync, types.OpSetPolicy:
		// A per-object sync costs one shard's force, a per-object policy
		// lives with its object; the drive-wide forms reach every shard.
		if req.Obj != 0 {
			return r.owner(req.Obj)(cred, req)
		}
		return r.fanOut(cred, req)
	case types.OpGetPolicy:
		// Every shard holds the broadcast default, so shard 0 answers
		// for it like the partition table.
		if req.Obj != 0 {
			return r.owner(req.Obj)(cred, req)
		}
		return r.shards[0](cred, req)
	case types.OpPCreate, types.OpPDelete, types.OpPList, types.OpPMount:
		return r.shards[0](cred, req)
	case types.OpFlush, types.OpSetWindow, types.OpAuditRead, types.OpScrub:
		return r.fanOut(cred, req)
	case types.OpStatus, types.OpStats:
		// Read-only and open to any client: ask on the gate's own
		// client session, which exists whether or not the gate holds
		// the shards' admin key.
		return r.fanOut(types.Cred{}, req)
	}
	return nil, types.ErrUnimplProto
}

// create allocates the next object ID from the router's cross-shard
// counter and creates it on the shard the ring names. A collision
// (another allocator raced us to the ID) retries with a fresh ID rather
// than failing the client. An explicit ID advances the counter past it.
func (r *Router) create(cred types.Cred, req *s4rpc.Request) (*s4rpc.Response, error) {
	if id := uint64(req.Obj); id != 0 {
		for {
			cur := r.nextOID.Load()
			if id < cur || r.nextOID.CompareAndSwap(cur, id+1) {
				break
			}
		}
		return r.owner(req.Obj)(cred, req)
	}
	sub := *req
	var resp *s4rpc.Response
	var err error
	for tries := 0; tries < 256; tries++ {
		sub.Obj = types.ObjectID(r.nextOID.Add(1) - 1)
		if resp, err = r.owner(sub.Obj)(cred, &sub); !errors.Is(err, types.ErrExist) {
			break
		}
	}
	return resp, err
}

// fanOut sends req to every shard with at most MaxFan concurrent calls,
// each under FanTimeout, and merges the replies by op. A shard missing
// the deadline is abandoned — its call may finish later but writes only
// to a channel nothing reads anymore, its fan-out slot frees
// immediately (one hung shard cannot wedge the operation), and its slot
// reports ErrShardTimeout. Each shard gets its own copy of the request,
// since an abandoned call outlives Do. The copies drop Data: no
// whole-drive op reads it, and a server's decoded request aliases its
// pooled frame through Data alone.
func (r *Router) fanOut(cred types.Cred, req *s4rpc.Request) (*s4rpc.Response, error) {
	rs := make([]reply, len(r.shards))
	sem := make(chan struct{}, r.opts.MaxFan)
	var wg sync.WaitGroup
	for i, h := range r.shards {
		sem <- struct{}{}
		wg.Add(1)
		sub := *req
		sub.Data = nil
		go func() {
			defer func() { <-sem; wg.Done() }()
			done := make(chan reply, 1)
			go func() {
				resp, err := h(cred, &sub)
				done <- reply{resp, err}
			}()
			timer := time.NewTimer(r.opts.FanTimeout)
			defer timer.Stop()
			select {
			case rs[i] = <-done:
			case <-timer.C:
				rs[i].err = ErrShardTimeout
			}
		}()
	}
	wg.Wait()
	out := new(s4rpc.Response)
	var err error
	switch req.Op {
	case types.OpAuditRead:
		// Seq and Max apply per shard on the way in; Max bounds the
		// merged stream on the way out.
		out.Records, err = gatherAudit(rs, req.Max)
	case types.OpStatus:
		out.Status, err = gatherStatus(rs)
	case types.OpStats:
		out.Stats, out.ShardStats, err = gatherStats(rs)
	case types.OpScrub:
		out.Scrub, err = gatherScrub(rs)
	default:
		err = partialFrom(rs)
	}
	return out, err
}
