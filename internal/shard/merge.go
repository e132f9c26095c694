package shard

import (
	"errors"
	"fmt"
	"reflect"
	"sort"

	"s4/internal/audit"
	"s4/internal/core"
	"s4/internal/s4rpc"
	"s4/internal/types"
)

// ErrShardTimeout marks a shard that missed its per-shard deadline in
// a scatter-gather operation. The call against that shard is abandoned
// (it may still complete on the shard); the fan-out never hangs on it.
var ErrShardTimeout = errors.New("shard: deadline exceeded")

// ShardError pins a failure to the shard that produced it — the typed
// per-shard error of the partial-failure contract (DESIGN.md §13).
// errors.Is/As see through to the underlying cause, so retryability
// (ErrBusy, ErrThrottled) survives the wrapping.
type ShardError struct {
	Shard int
	Err   error
}

func (e *ShardError) Error() string { return fmt.Sprintf("shard %d: %v", e.Shard, e.Err) }
func (e *ShardError) Unwrap() error { return e.Err }

// PartialError aggregates the per-shard failures of one scatter-gather
// operation. The operation's partial results are still returned beside
// it: a down shard yields this typed error, never a silently truncated
// result. Unwrap exposes every ShardError to errors.Is/As.
type PartialError struct {
	Errs []error // each a *ShardError
}

func (e *PartialError) Error() string {
	if len(e.Errs) == 1 {
		return e.Errs[0].Error()
	}
	return fmt.Sprintf("%d shards failed: %v (+%d more)", len(e.Errs), e.Errs[0], len(e.Errs)-1)
}

func (e *PartialError) Unwrap() []error { return e.Errs }

// reply is one shard's answer to a fanned-out request: resp is read
// only when err is nil.
type reply struct {
	resp *s4rpc.Response
	err  error
}

// partialFrom folds the failed shards' errors (replies indexed by
// shard) into a PartialError, or nil when every shard succeeded.
func partialFrom(rs []reply) error {
	var list []error
	for i, rep := range rs {
		if rep.err != nil {
			list = append(list, &ShardError{Shard: i, Err: rep.err})
		}
	}
	if len(list) == 0 {
		return nil
	}
	return &PartialError{Errs: list}
}

// gatherStats merges per-shard stats replies (indexed by shard) into
// the aggregate, the per-shard breakdown, and the typed partial
// error. Only successful shards contribute to the aggregate — a failed
// shard's slot in the breakdown is the zero Stats and is reported via
// the error, never invented or double-counted.
func gatherStats(rs []reply) (core.Stats, []core.Stats, error) {
	per := make([]core.Stats, len(rs))
	ok := make([]core.Stats, 0, len(rs))
	for i, rep := range rs {
		if rep.err == nil {
			per[i] = rep.resp.Stats
			ok = append(ok, rep.resp.Stats)
		}
	}
	return sumStats(ok), per, partialFrom(rs)
}

// sumStats adds counters field-by-field. Every int64 counter (and the
// ThrottleDelays duration) sums; the Ops map merges by op. Reflection
// keeps this total: a counter added to core.Stats is aggregated here
// without anyone remembering to update a hand-written list.
func sumStats(per []core.Stats) core.Stats {
	var out core.Stats
	out.Ops = make(map[types.Op]int64)
	ov := reflect.ValueOf(&out).Elem()
	for i := range per {
		sv := reflect.ValueOf(&per[i]).Elem()
		for f := 0; f < sv.NumField(); f++ {
			field := sv.Field(f)
			switch field.Kind() {
			case reflect.Int64:
				ov.Field(f).SetInt(ov.Field(f).Int() + field.Int())
			case reflect.Map:
				for _, k := range field.MapKeys() {
					op := k.Interface().(types.Op)
					out.Ops[op] += field.MapIndex(k).Int()
				}
			}
		}
	}
	return out
}

// gatherStatus merges per-shard status replies (indexed by shard).
// Occupancy counters sum; Window reports the widest shard (shards are
// configured alike, so a disagreement is worth surfacing as the
// conservative maximum); NextOID is the cross-shard allocation
// high-water mark; Suspects is the deduplicated union.
func gatherStatus(rs []reply) (core.StatusInfo, error) {
	var out core.StatusInfo
	seen := make(map[types.ClientID]bool)
	for _, rep := range rs {
		if rep.err != nil {
			continue
		}
		st := &rep.resp.Status
		if st.Window > out.Window {
			out.Window = st.Window
		}
		out.Objects += st.Objects
		out.LiveBlocks += st.LiveBlocks
		out.HistoryBlocks += st.HistoryBlocks
		out.FreeSegments += st.FreeSegments
		out.TotalSegments += st.TotalSegments
		out.AuditRecords += st.AuditRecords
		out.AuditBlocks += st.AuditBlocks
		out.JournalBlocks += st.JournalBlocks
		out.CPBlocks += st.CPBlocks
		if st.NextOID > out.NextOID {
			out.NextOID = st.NextOID
		}
		for _, c := range st.Suspects {
			if !seen[c] {
				seen[c] = true
				out.Suspects = append(out.Suspects, c)
			}
		}
	}
	sort.Slice(out.Suspects, func(i, j int) bool { return out.Suspects[i] < out.Suspects[j] })
	return out, partialFrom(rs)
}

// gatherAudit merges per-shard audit streams (indexed by shard) into
// one diagnosis timeline: every record is tagged with its shard, the
// merged stream is ordered by (Time, Shard, Seq), and max > 0 bounds
// the result. Sequence numbers remain per-shard — (Shard, Seq) is the
// unique key, which is why the tag exists. Failed shards contribute
// nothing and are reported in the typed error; the reachable shards'
// records are still returned.
func gatherAudit(rs []reply, max int) ([]audit.Record, error) {
	var merged []audit.Record
	for i, rep := range rs {
		if rep.err != nil {
			continue
		}
		for _, r := range rep.resp.Records {
			r.Shard = i
			merged = append(merged, r)
		}
	}
	sort.Slice(merged, func(a, b int) bool {
		ra, rb := &merged[a], &merged[b]
		if ra.Time != rb.Time {
			return ra.Time < rb.Time
		}
		if ra.Shard != rb.Shard {
			return ra.Shard < rb.Shard
		}
		return ra.Seq < rb.Seq
	})
	if max > 0 && len(merged) > max {
		merged = merged[:max]
	}
	return merged, partialFrom(rs)
}

// gatherScrub sums the reachable shards' integrity sweeps.
func gatherScrub(rs []reply) (core.ScrubResult, error) {
	var out core.ScrubResult
	for _, rep := range rs {
		if rep.err != nil {
			continue
		}
		sr := &rep.resp.Scrub
		out.Segments += sr.Segments
		out.Blocks += sr.Blocks
		out.Corrupt += sr.Corrupt
		out.Repaired += sr.Repaired
		out.Quarantined += sr.Quarantined
	}
	return out, partialFrom(rs)
}
