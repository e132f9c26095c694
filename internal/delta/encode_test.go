package delta

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"s4/internal/harness/israce"
)

// churnPair returns two consecutive versions of the block the
// rpc_churn_history workload overwrites: 4,056 bytes of a body with
// period 256 — so every 16-byte chunk of it has 16 candidates in the
// index — and a 40-byte tail that differs from version to version.
func churnPair(ver uint64) (newer, older []byte) {
	mk := func(v uint64) []byte {
		b := make([]byte, 4096)
		for i := range b {
			b[i] = byte(i * 7)
		}
		tail := b[len(b)-40:]
		binary.LittleEndian.PutUint64(tail, v)
		rand.New(rand.NewSource(int64(v))).Read(tail[8:])
		return b
	}
	return mk(ver + 1), mk(ver)
}

func randomBlock(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// checkAgainstReference holds Encode, Compress and EncodeSlot to the
// byte-identity contract for one pair, and the decoders to the round
// trip.
func checkAgainstReference(t *testing.T, ref, target []byte) {
	t.Helper()
	want := refEncode(ref, target)
	got := Encode(ref, target)
	if !bytes.Equal(got, want) {
		t.Fatalf("Encode(ref %d B, target %d B): %d bytes, reference encoder %d bytes; first difference at %d",
			len(ref), len(target), len(got), len(want), firstDiff(got, want))
	}
	back, err := Apply(ref, got)
	if err != nil {
		t.Fatalf("Apply of own encoding: %v", err)
	}
	if !bytes.Equal(back, target) {
		t.Fatalf("Apply reconstructed %d bytes, want the %d-byte target", len(back), len(target))
	}
	wantC, err := refCompress(want)
	if err != nil {
		t.Fatal(err)
	}
	gotC, err := Compress(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotC, wantC) {
		t.Fatalf("Compress of a %d-byte delta: %d bytes, reference %d bytes; first difference at %d",
			len(got), len(gotC), len(wantC), firstDiff(gotC, wantC))
	}
	if inflated, err := Decompress(gotC); err != nil || !bytes.Equal(inflated, got) {
		t.Fatalf("Decompress: %d bytes, err %v; want the %d-byte delta", len(inflated), err, len(got))
	}
	// Both sides of the size cut-off, and no cut-off at all. EncodeSlot
	// is held in two halves: what it accepts is what the reference
	// accepts, its payload is the raw delta unless only DEFLATE got that
	// under the cut-off, and deflating the payload the way PackSlots
	// would gives the reference's slot.
	for _, maxLen := range []int{len(target) / 2, min(len(wantC), len(want)) - 1, math.MaxInt} {
		ws, wok := refEncodeSlot(ref, target, maxLen)
		gs, gok := EncodeSlot(ref, target, maxLen)
		if gok != wok {
			t.Fatalf("EncodeSlot(maxLen %d) ok = %v, reference %v", maxLen, gok, wok)
		}
		if !gok {
			continue
		}
		if gs.Flate != (len(want) > maxLen) || !gs.Flate && !bytes.Equal(gs.Payload, want) {
			t.Fatalf("EncodeSlot(maxLen %d) = (%d bytes, flate %v), raw delta is %d bytes",
				maxLen, len(gs.Payload), gs.Flate, len(want))
		}
		if ds, err := deflateIfSmaller(gs); err != nil || ds.Flate != ws.Flate || !bytes.Equal(ds.Payload, ws.Payload) {
			t.Fatalf("EncodeSlot(maxLen %d), deflated = (%d bytes, flate %v, err %v), reference (%d bytes, flate %v)",
				maxLen, len(ds.Payload), ds.Flate, err, len(ws.Payload), ws.Flate)
		}
	}
}

// deflateIfSmaller is what PackSlots does to each raw slot of an entry
// that overflows one packed block, and what the reference encoder did
// to every slot.
func deflateIfSmaller(s Slot) (Slot, error) {
	if s.Flate {
		return s, nil
	}
	c, err := Compress(s.Payload)
	if err == nil && len(c) < len(s.Payload) {
		s.Payload, s.Flate = c, true
	}
	return s, err
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// FuzzEncodeMatchesReference is the differential oracle for the encoder:
// whatever the pooled, table-indexed, word-matching encoder returns must
// be what the original returned, since what it returns is stored.
func FuzzEncodeMatchesReference(f *testing.F) {
	newer, older := churnPair(7)
	f.Add(newer, older)
	f.Add([]byte{}, []byte{})
	f.Add([]byte{}, []byte("fresh"))
	f.Add([]byte("fifteen bytes.."), []byte("fifteen bytes.."))
	f.Add(older, []byte("short target"))
	f.Add([]byte("short reference"), older)
	f.Add(older, older[5:]) // every chunk boundary shifted
	f.Add(older[:4091], append([]byte("12345"), older...))
	f.Add(randomBlock(1, 4096), randomBlock(2, 4096))
	f.Add(bytes.Repeat([]byte{0}, 4096), bytes.Repeat([]byte{0}, 4000)) // one bucket, every chunk in it
	// A literal run longer than one INSERT instruction carries (64 KB),
	// then a match, so the split and the backward extension both run.
	long := randomBlock(3, 70000)
	f.Add(older, append(append([]byte(nil), long...), older...))
	f.Fuzz(func(t *testing.T, ref, target []byte) {
		// The reference encoder extends every candidate byte by byte:
		// on a repetitive pair it costs len(ref)*len(target)/32 compares.
		if len(ref) > 1<<14 || len(target) > 1<<17 {
			return
		}
		checkAgainstReference(t, ref, target)
	})
}

// TestEncodeMatchesReferenceOnEdits drives the oracle over the kind of
// input the capacity analysis feeds Encode: a large reference and a
// target made from it by scattered edits, insertions and deletions, so
// that tables are sized past the pooled cap and rebuilt smaller after.
func TestEncodeMatchesReferenceOnEdits(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for round := 0; round < 6; round++ {
		ref := make([]byte, 1000+r.Intn(300000))
		for i := range ref {
			ref[i] = byte('a' + r.Intn(4)) // few symbols: long chains, many false candidates
		}
		target := append([]byte(nil), ref...)
		for e := 0; e < 12; e++ {
			pos := r.Intn(len(target) - 200)
			switch r.Intn(3) {
			case 0:
				copy(target[pos:], "EDIT!")
			case 1:
				target = append(target[:pos], append(randomBlock(int64(e), r.Intn(100)), target[pos:]...)...)
			default:
				target = append(target[:pos], target[pos+r.Intn(100):]...)
			}
		}
		checkAgainstReference(t, ref, target)
		newer, older := churnPair(uint64(round))
		checkAgainstReference(t, newer, older)
	}
}

// TestEncodeSlotAllocs is the count the rewrite exists for: a steady-
// state EncodeSlot allocates the payload it returns and nothing else.
// With a compressor, an index map and a literal slice made per call it
// was 112 allocations and 820 KB for this pair.
func TestEncodeSlotAllocs(t *testing.T) {
	newer, older := churnPair(1)
	want := refEncode(newer, older)
	encode := func() {
		s, ok := EncodeSlot(newer, older, 2048)
		if !ok || s.Flate || !bytes.Equal(s.Payload, want) {
			t.Fatalf("EncodeSlot = (%d bytes, flate %v, ok %v), want the %d-byte raw delta",
				len(s.Payload), s.Flate, ok, len(want))
		}
	}
	ws, _ := refEncodeSlot(newer, older, 2048)
	if ds, err := deflateIfSmaller(Slot{Payload: want}); err != nil || ds.Flate != ws.Flate || !bytes.Equal(ds.Payload, ws.Payload) {
		t.Fatalf("raw delta, deflated = (%d bytes, flate %v, err %v), reference (%d bytes, flate %v)",
			len(ds.Payload), ds.Flate, err, len(ws.Payload), ws.Flate)
	}
	encode() // warm the pool
	if israce.Enabled {
		t.Log("race detector on: sync.Pool drops entries at random, allocation thresholds not checked")
		return
	}
	const runs = 200
	allocs := testing.AllocsPerRun(runs, encode)
	// AllocsPerRun changes GOMAXPROCS while it runs, and a sync.Pool
	// forgets everything when that changes: warm up again before
	// counting bytes.
	encode()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		encode()
	}
	runtime.ReadMemStats(&after)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("EncodeSlot on the churn pair: %.0f allocs, %.0f B per call, %d-byte payload", allocs, bytesPer, len(want))
	if allocs > 2 {
		t.Errorf("EncodeSlot allocates %.0f times per call, want at most 2 (the payload)", allocs)
	}
	if bytesPer >= 1024 {
		t.Errorf("EncodeSlot allocates %.0f B per call, want under 1 KB", bytesPer)
	}
}

// TestEncodeConcurrent encodes distinct pairs from several goroutines at
// once, as writers to different objects do under the shared drive lock:
// pooled state must never be shared between two calls in flight.
func TestEncodeConcurrent(t *testing.T) {
	const workers, rounds = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				newer, older := churnPair(uint64(w*rounds + r))
				if r%4 == 3 {
					older = randomBlock(int64(w*rounds+r), 4096) // no match: the deflated branch
				}
				want, wok := refEncodeSlot(newer, older, 1<<20)
				got, ok := EncodeSlot(newer, older, 1<<20)
				if ok != wok || got.Flate || !bytes.Equal(got.Payload, refEncode(newer, older)) {
					t.Errorf("worker %d round %d: EncodeSlot differs from the reference's raw delta", w, r)
					return
				}
				got, err := deflateIfSmaller(got)
				if err != nil || got.Flate != want.Flate || !bytes.Equal(got.Payload, want.Payload) {
					t.Errorf("worker %d round %d: EncodeSlot, deflated, differs from the reference (err %v)", w, r, err)
					return
				}
				if d := Encode(newer, older); !bytes.Equal(d, refEncode(newer, older)) {
					t.Errorf("worker %d round %d: Encode differs from the reference", w, r)
					return
				}
				block := NewPackedBuilder(1 << 20)
				block.Add(got)
				if back, err := ApplySlot(nil, block.Finish(), 0, newer); err != nil || !bytes.Equal(back, older) {
					t.Errorf("worker %d round %d: ApplySlot: err %v", w, r, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

var sinkSlot Slot

// BenchmarkEncodeSlotChurn is what convertOldLocked pays per old block
// on rpc_churn_history: index, match and the payload copy.
func BenchmarkEncodeSlotChurn(b *testing.B) {
	newer, older := churnPair(1)
	b.ReportAllocs()
	b.SetBytes(int64(len(older)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSlot, _ = EncodeSlot(newer, older, 2048)
	}
}

var sinkDelta []byte

func BenchmarkEncodeChurn(b *testing.B) {
	newer, older := churnPair(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDelta = Encode(newer, older)
	}
}
