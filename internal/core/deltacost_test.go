package core

import (
	"bytes"
	"runtime"
	"testing"

	"s4/internal/harness/israce"
	"s4/internal/types"
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

	st := e.d.GetStats()
	got := [4]int64{st.DeltaBlocksWritten, st.DeltaBytesSaved, st.ChainKeyframes, st.HistoryBlocks}
	want := [4]int64{182, 5218304, 152, 382}
	if got != want {
		t.Errorf("DeltaBlocksWritten, DeltaBytesSaved, ChainKeyframes, HistoryBlocks = %v, want %v: the stored history changed", got, want)
	}
	if err := e.d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// allocBytesPer returns the bytes allocated per call over n calls of fn.
func allocBytesPer(n int, fn func(i int)) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestDeepChainReadAllocs: a history read of one block through a chain
// of maxDeltaChain links allocates what a read through one link does,
// two block-sized buffers — the block the last link decodes into and
// the reply. When every link decoded into a buffer of its own it was one
// more block per link.
func TestDeepChainReadAllocs(t *testing.T) {
	e := newTestDrive(t)
	deltaOn(e)
	id := e.create(alice)
	const span, depth, runs = 2, 8, 200
	times := deepChain(e, id, span, depth)
	perRead := func(v int) uint64 {
		want := spanPattern(v, span)[:types.BlockSize]
		read := func(int) {
			if got := e.read(alice, id, 0, types.BlockSize, times[v]); !bytes.Equal(got, want) {
				t.Fatalf("version %d did not read back through its chain", v)
			}
		}
		read(0) // fill the reconstruction cache and the buffer pool
		return allocBytesPer(runs, read)
	}
	deep, shallow := perRead(0), perRead(depth-1)
	t.Logf("a one-block history read allocates %d B through %d links, %d B through one", deep, depth, shallow)
	if israce.Enabled {
		t.Log("race detector on: sync.Pool drops entries at random, allocation thresholds not checked")
		return
	}
	if deep > shallow+512 {
		t.Errorf("a read through %d links allocates %d B, %d B through one: a chain's length must not show", depth, deep, shallow)
	}
	if deep >= 3*types.BlockSize {
		t.Errorf("a read through %d links allocates %d B, want two block buffers and under a block of everything else", depth, deep)
	}
}

// TestLoneCandidateNotEncoded: conversion commits only when it saves a
// block, and one slot in one packed block saves nothing, so a one-block
// overwrite under a delta policy must cost what it costs under the zero
// policy — no read of the old block (counted as block-cache lookups),
// no encode (bounded as bytes allocated).
func TestLoneCandidateNotEncoded(t *testing.T) {
	const warm, rounds = 4, 200
	cost := func(delta bool) (lookups int64, allocPerWrite uint64) {
		e := newTestDrive(t)
		if delta {
			deltaOn(e)
		}
		id := e.create(alice)
		for v := 0; v < warm; v++ {
			e.write(alice, id, 0, blockPattern(v))
			e.tick()
		}
		s0 := e.d.GetStats()
		allocPerWrite = allocBytesPer(rounds, func(i int) {
			if err := e.d.Write(alice, id, 0, blockPattern(warm+i)); err != nil {
				t.Fatal(err)
			}
			e.tick()
		})
		s1 := e.d.GetStats()
		if s1.DeltaBlocksWritten != 0 {
			t.Fatalf("one-block overwrites wrote %d packed blocks", s1.DeltaBlocksWritten)
		}
		if err := e.d.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return s1.CacheHits + s1.CacheMisses - s0.CacheHits - s0.CacheMisses, allocPerWrite
	}
	plainLookups, plainAlloc := cost(false)
	deltaLookups, deltaAlloc := cost(true)
	t.Logf("per one-block overwrite: %d B allocated under a delta policy, %d B under the zero policy; %d and %d cache lookups in all",
		deltaAlloc, plainAlloc, deltaLookups, plainLookups)
	if deltaLookups != plainLookups {
		t.Errorf("%d one-block overwrites under a delta policy looked up %d blocks, %d under the zero policy: the lone old block was read",
			rounds, deltaLookups, plainLookups)
	}
	if israce.Enabled {
		t.Log("race detector on: allocation threshold not checked")
	} else if deltaAlloc > plainAlloc+1024 {
		t.Errorf("a one-block overwrite allocates %d B under a delta policy, %d B under the zero policy", deltaAlloc, plainAlloc)
	}
}
