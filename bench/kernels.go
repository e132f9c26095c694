package main

import (
	"time"

	"s4/internal/audit"
	"s4/internal/delta"
	"s4/internal/journal"
	"s4/internal/seglog"
	"s4/internal/types"
)

// codecKernels times the codecs that sit inside core, where no wrapper
// can reach them, by calling them directly on what rpc_churn_history
// feeds them: consecutive versions of a churn block, a journal sector of
// span-write entries, a block of write audit records.
func codecKernels(seed int64, m map[string]float64) {
	const rounds = 200
	per := func(fn func(i int)) float64 {
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			fn(i)
		}
		return float64(time.Since(t0).Microseconds()) / rounds
	}

	span := make([]byte, blockSize)
	churnBody(span, 0, 0)
	older, newer := append([]byte(nil), span...), append([]byte(nil), span...)
	var d []byte
	m["delta.encode_us_per_block"] = per(func(i int) {
		churnSpan(older, seed, 0, 0, uint64(i))
		churnSpan(newer, seed, 0, 0, uint64(i+1))
		d = delta.Encode(newer, older)
	})
	m["delta.bytes_per_block"] = float64(len(d))
	m["delta.apply_us_per_block"] = per(func(int) { _, _ = delta.Apply(newer, d) })

	entry := func(v uint64) *journal.Entry {
		e := &journal.Entry{Type: journal.EntWrite, Version: v, Time: types.Timestamp(v), User: 100, Client: 1,
			OldSize: 8 * blockSize, NewSize: 8 * blockSize, DeltaMask: 0xff}
		for b := uint64(0); b < 8; b++ {
			e.Old = append(e.Old, seglog.BlockAddr(1000+v*8+b))
			e.New = append(e.New, seglog.BlockAddr(2000+v*8+b))
		}
		return e
	}
	entries := []*journal.Entry{entry(1), entry(2)}
	var sector []byte
	m["journal.encode_sector_us"] = per(func(int) { sector, _ = journal.EncodeSector(16, 7, entries) })
	m["journal.decode_sector_us"] = per(func(int) { _, _, _, _, _ = journal.DecodeSector(sector) })

	recs := make([]audit.Record, 24)
	for i := range recs {
		recs[i] = audit.Record{Seq: uint64(i), Time: types.Timestamp(i), Client: 1, User: 100,
			Op: types.OpWrite, Obj: 16, Length: 8 * blockSize, Raw: make([]byte, 64), OK: true}
	}
	m["audit.encode_block_us"] = per(func(int) { _, _ = audit.EncodeBlock(recs) })
}
