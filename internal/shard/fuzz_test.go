package shard

import (
	"errors"
	"testing"

	"s4/internal/audit"
	"s4/internal/core"
	"s4/internal/s4rpc"
	"s4/internal/types"
)

// FuzzGatherMerge drives the scatter-gather merge layer with arbitrary
// mixes of per-shard outcomes — success, ErrBusy, ErrThrottled,
// ErrShardTimeout — and checks the partial-failure contract holds for
// every mix: no panic, an error reported exactly when some shard
// failed and naming exactly the failed shards, aggregates equal to the
// sum over successful shards (no double counting, no fabricated
// success), and a merged audit stream that is correctly tagged,
// ordered, and bounded.
//
// The input is consumed as a byte stream: shard count, then one
// outcome byte per shard plus a few value bytes for counters, record
// counts, and timestamps.
func FuzzGatherMerge(f *testing.F) {
	f.Add([]byte{4, 0, 1, 2, 3})                            // one of each outcome
	f.Add([]byte{1, 0, 7})                                  // single healthy shard
	f.Add([]byte{8, 1, 1, 1, 1, 1, 1, 1, 1})                // everything down
	f.Add([]byte{3, 0, 0, 0, 9, 9, 9, 200, 1, 2, 3, 4, 5})  // all healthy, busy counters
	f.Add([]byte{6, 0, 3, 0, 2, 0, 1, 0xff, 0x10, 0, 0, 1}) // alternating

	f.Fuzz(func(t *testing.T, data []byte) {
		in := &byteStream{data: data}
		shards := 1 + int(in.next())%8

		fails := make([]error, shards)
		var failed []int
		for i := 0; i < shards; i++ {
			switch in.next() % 4 {
			case 1:
				fails[i] = types.ErrBusy
			case 2:
				fails[i] = types.ErrThrottled
			case 3:
				fails[i] = ErrShardTimeout
			}
			if fails[i] != nil {
				failed = append(failed, i)
			}
		}

		checkErr := func(op string, err error) {
			t.Helper()
			if (err != nil) != (len(failed) > 0) {
				t.Fatalf("%s: err=%v with %d failed shards — success must be reported iff every shard succeeded",
					op, err, len(failed))
			}
			if err == nil {
				return
			}
			var pe *PartialError
			if !errors.As(err, &pe) {
				t.Fatalf("%s: error %v is not a *PartialError", op, err)
			}
			if len(pe.Errs) != len(failed) {
				t.Fatalf("%s: %d shard errors for %d failed shards", op, len(pe.Errs), len(failed))
			}
			for k, e := range pe.Errs {
				var se *ShardError
				if !errors.As(e, &se) {
					t.Fatalf("%s: entry %v is not a *ShardError", op, e)
				}
				if se.Shard != failed[k] {
					t.Fatalf("%s: error entry %d names shard %d, want %d", op, k, se.Shard, failed[k])
				}
				if !errors.Is(e, fails[se.Shard]) {
					t.Fatalf("%s: shard %d error %v lost its cause %v", op, se.Shard, e, fails[se.Shard])
				}
			}
		}

		// ---- gatherStats ----
		statsIn := make([]reply, shards)
		var wantWrites, wantSyncs int64
		for i := 0; i < shards; i++ {
			st := core.Stats{Ops: map[types.Op]int64{
				types.OpWrite: int64(in.next()),
				types.OpSync:  int64(in.next()),
			}}
			if fails[i] != nil {
				statsIn[i] = reply{err: fails[i]}
				continue // counters from a down shard must not leak in
			}
			statsIn[i] = reply{resp: &s4rpc.Response{Stats: st}}
			wantWrites += st.Ops[types.OpWrite]
			wantSyncs += st.Ops[types.OpSync]
		}
		agg, per, err := gatherStats(statsIn)
		checkErr("gatherStats", err)
		if len(per) != shards {
			t.Fatalf("gatherStats: breakdown has %d slots for %d shards", len(per), shards)
		}
		if agg.Ops[types.OpWrite] != wantWrites || agg.Ops[types.OpSync] != wantSyncs {
			t.Fatalf("gatherStats: aggregate writes=%d syncs=%d, want %d/%d — counters double-counted or fabricated",
				agg.Ops[types.OpWrite], agg.Ops[types.OpSync], wantWrites, wantSyncs)
		}
		for _, i := range failed {
			if len(per[i].Ops) != 0 {
				t.Fatalf("gatherStats: down shard %d's breakdown slot is non-zero", i)
			}
		}

		// ---- gatherStatus ----
		statusIn := make([]reply, shards)
		var wantObjects int
		var wantNext types.ObjectID
		for i := 0; i < shards; i++ {
			st := core.StatusInfo{
				Objects: int(in.next()),
				NextOID: types.ObjectID(in.next()) + types.FirstUserObject,
			}
			if fails[i] != nil {
				statusIn[i] = reply{err: fails[i]}
				continue
			}
			statusIn[i] = reply{resp: &s4rpc.Response{Status: st}}
			wantObjects += st.Objects
			if st.NextOID > wantNext {
				wantNext = st.NextOID
			}
		}
		stAgg, err := gatherStatus(statusIn)
		checkErr("gatherStatus", err)
		if stAgg.Objects != wantObjects {
			t.Fatalf("gatherStatus: Objects=%d, want %d", stAgg.Objects, wantObjects)
		}
		if stAgg.NextOID != wantNext {
			t.Fatalf("gatherStatus: NextOID=%d, want max %d", stAgg.NextOID, wantNext)
		}

		// ---- gatherAudit ----
		auditIn := make([]reply, shards)
		wantRecs := 0
		for i := 0; i < shards; i++ {
			if fails[i] != nil {
				auditIn[i] = reply{err: fails[i]}
				continue
			}
			n := int(in.next()) % 5
			recs := make([]audit.Record, n)
			for j := range recs {
				recs[j] = audit.Record{
					Seq:  uint64(j),
					Time: types.Timestamp(in.next()),
					Obj:  types.ObjectID(in.next()),
				}
			}
			auditIn[i] = reply{resp: &s4rpc.Response{Records: recs}}
			wantRecs += n
		}
		max := int(in.next()) % 12
		merged, err := gatherAudit(auditIn, max)
		checkErr("gatherAudit", err)
		want := wantRecs
		if max > 0 && want > max {
			want = max
		}
		if len(merged) != want {
			t.Fatalf("gatherAudit: %d merged records, want %d (from %d, max %d)",
				len(merged), want, wantRecs, max)
		}
		for k, rec := range merged {
			if rec.Shard < 0 || rec.Shard >= shards {
				t.Fatalf("gatherAudit: record %d tagged shard %d of %d", k, rec.Shard, shards)
			}
			if fails[rec.Shard] != nil {
				t.Fatalf("gatherAudit: record %d attributed to down shard %d", k, rec.Shard)
			}
			if k == 0 {
				continue
			}
			prev := merged[k-1]
			if rec.Time < prev.Time ||
				(rec.Time == prev.Time && rec.Shard < prev.Shard) ||
				(rec.Time == prev.Time && rec.Shard == prev.Shard && rec.Seq < prev.Seq) {
				t.Fatalf("gatherAudit: records %d and %d out of (Time, Shard, Seq) order", k-1, k)
			}
		}

		// ---- gatherScrub ----
		scrubIn := make([]reply, shards)
		var wantBlocks int64
		for i := 0; i < shards; i++ {
			sr := core.ScrubResult{Segments: 1, Blocks: int64(in.next())}
			if fails[i] != nil {
				scrubIn[i] = reply{err: fails[i]}
				continue
			}
			scrubIn[i] = reply{resp: &s4rpc.Response{Scrub: sr}}
			wantBlocks += sr.Blocks
		}
		scAgg, err := gatherScrub(scrubIn)
		checkErr("gatherScrub", err)
		if scAgg.Blocks != wantBlocks || scAgg.Segments != int64(shards-len(failed)) {
			t.Fatalf("gatherScrub: %d segments, %d blocks; want %d, %d",
				scAgg.Segments, scAgg.Blocks, shards-len(failed), wantBlocks)
		}
	})
}

// byteStream doles out fuzz input bytes, padding with zeros once the
// input runs dry so every prefix is a valid scenario.
type byteStream struct {
	data []byte
	pos  int
}

func (s *byteStream) next() byte {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return b
}
