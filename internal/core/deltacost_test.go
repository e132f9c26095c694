package core

import (
	"runtime"
	"testing"

	"s4/internal/harness/israce"
)

// TestDeltaOverwriteAllocBytes is the count gate on what reverse-delta
// conversion costs the write path, taken where the cost was paid: 200
// small-diff overwrites of an 8-block span under {every-version,
// DeltaEnabled}. Each overwrite re-encodes eight old blocks; when every
// encode made its own DEFLATE compressor and index map that was ~6 MB
// allocated (and zeroed) per overwrite. The four counters are what the
// conversions stored, recorded from the encoder this one replaced: a
// cheaper encoder must not store one byte differently.
func TestDeltaOverwriteAllocBytes(t *testing.T) {
	e := newTestDrive(t)
	deltaOn(e)
	id := e.create(alice)
	const span, warm, rounds = 8, 8, 200
	spans := make([][]byte, warm+rounds)
	for v := range spans {
		spans[v] = spanPattern(v, span)
	}
	for _, s := range spans[:warm] {
		e.write(alice, id, 0, s)
		e.tick()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, s := range spans[warm:] {
		if err := e.d.Write(alice, id, 0, s); err != nil {
			t.Fatal(err)
		}
		e.tick()
	}
	runtime.ReadMemStats(&after)
	perWrite := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("%d B allocated per %d-block delta overwrite", perWrite, span)
	if israce.Enabled {
		t.Log("race detector on: sync.Pool drops entries at random, allocation threshold not checked")
	} else if perWrite >= 128<<10 {
		t.Errorf("a delta overwrite of %d blocks allocates %d B, want under 128 KB", span, perWrite)
	}

	st := e.d.DriveStats()
	got := [4]int64{st.DeltaBlocksWritten, st.DeltaBytesSaved, st.ChainKeyframes, st.HistoryBlocks}
	want := [4]int64{182, 5218304, 152, 388}
	if got != want {
		t.Errorf("DeltaBlocksWritten, DeltaBytesSaved, ChainKeyframes, HistoryBlocks = %v, want %v: the stored history changed", got, want)
	}
	if err := e.d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
