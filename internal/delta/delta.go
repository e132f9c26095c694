// Package delta implements cross-version differencing and compression
// for old versions (OSDI '00, §4.2.2 and §5.2).
//
// The paper measured, using Xdelta over a week of daily snapshots of the
// S4 source tree, that differencing old versions against their
// neighbors raises history-pool space efficiency about 3x, and adding
// compression about 5x. This package provides the same two mechanisms:
//
//   - Encode/Apply: a greedy copy/insert binary delta in the Xdelta
//     style — the reference (old) version is indexed by content-defined
//     chunks of a rolling hash; the new version is scanned for matches,
//     which become COPY instructions; unmatched bytes become INSERTs.
//   - Pack/Unpack: DEFLATE (compress/flate) applied to the delta (or to
//     raw data when no reference exists).
//
// The capacity analysis (internal/capacity) and the cleaner's cold-
// version compression use this package.
package delta

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sync"

	"s4/internal/types"
)

// Instruction opcodes.
const (
	opCopy   = 0x01 // copy (off, len) from the reference
	opInsert = 0x02 // insert literal bytes
)

const (
	// chunk is the granularity of reference indexing.
	chunk = 16
	// minMatch is the smallest run worth a COPY instruction.
	minMatch = 24
	// MaxTarget bounds the reconstructed size Apply (and Decompress)
	// will produce. Hostile length fields beyond it fail typed instead
	// of driving an unbounded allocation.
	MaxTarget = 1 << 24
)

// Encode computes a delta that transforms ref into target. The delta is
// self-contained: Apply(ref, delta) == target. Encoding against an
// empty reference degenerates to one big INSERT.
func Encode(ref, target []byte) []byte {
	e := encoders.Get().(*encoder)
	defer e.release()
	return bytes.Clone(e.encode(ref, target))
}

// encoder is the working state of one Encode, Compress, EncodeSlot or
// PackSlots call: the reference index, the delta under construction,
// and the DEFLATE compressor with the buffer it writes into. None of it
// carries meaning from one call to the next — a call rebuilds the index
// and resets the compressor before using them — it is kept only so that
// a call costs what it encodes instead of what its state costs to
// allocate and zero (a level-6 flate.Writer alone is ~800 KB). Encoders
// are recycled through a pool rather than owned by a drive because
// writers to different objects convert old blocks concurrently under the
// shared drive lock. Whatever a call returns is a copy: nothing handed
// out aliases pooled memory.
type encoder struct {
	// The index is a chained hash table over the reference's aligned
	// 16-byte chunks, stored flat. head[b] is 1 + the lowest-numbered
	// chunk in bucket b and next[c] is 1 + the next higher chunk in c's
	// bucket; 0 ends a chain. Chunk numbers are uint32, which covers a
	// 64 GiB reference.
	head []uint32
	next []uint32
	out  []byte        // the delta encode builds
	zbuf bytes.Buffer  // what deflate compresses into
	zw   *flate.Writer // level 6, Reset per use; made on first deflate
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// maxPooled bounds, in bytes, each of the tables and buffers an encoder
// (or inflater) may keep when it goes back to its pool. The drive's 4 KB
// blocks need ~2 KB of index and ~4 KB of each buffer; one MB-sized call
// (internal/capacity) must not leave its tables pinned behind it.
const maxPooled = 1 << 16

func (e *encoder) release() {
	if 4*(cap(e.head)+cap(e.next)) > maxPooled || cap(e.out) > maxPooled || e.zbuf.Cap() > maxPooled {
		e.head, e.next, e.out, e.zbuf = nil, nil, nil, bytes.Buffer{}
	}
	encoders.Put(e)
}

// encode is Encode into e.out; the result is valid until e's next use.
//
// The output is a function of (ref, target) alone, not of how the index
// is laid out: at each target position the candidates are exactly the
// aligned reference chunks equal to the 16 bytes there (a bucket's other
// occupants fail the comparison), they are tried in ascending offset
// order, and only a strictly longer match replaces the best so far. The
// stored format depends on that — reference_test.go keeps the original
// map-indexed encoder and the tests compare the two byte for byte.
func (e *encoder) encode(ref, target []byte) []byte {
	out := binary.AppendUvarint(e.out[:0], uint64(len(target)))
	nChunks := len(ref) / chunk
	if nChunks == 0 {
		e.out = appendInsert(out, target)
		return e.out
	}
	shift := e.index(ref, nChunks)
	litStart, i := 0, 0 // target[litStart:i] is the pending literal run
	for i+chunk <= len(target) {
		lo, hi := load64(target[i:]), load64(target[i+8:])
		best, bestLen := 0, 0
		for c := e.head[hashChunk(lo, hi)>>shift]; c != 0; c = e.next[c-1] {
			cand := int(c-1) * chunk
			// A candidate that cannot be strictly longer than the best
			// cannot win: it must at least match one byte past it.
			if bestLen > 0 && (cand+bestLen >= len(ref) || i+bestLen >= len(target) ||
				ref[cand+bestLen] != target[i+bestLen]) {
				continue
			}
			if load64(ref[cand:]) != lo || load64(ref[cand+8:]) != hi {
				continue
			}
			if l := chunk + matchLen(ref[cand+chunk:], target[i+chunk:]); l > bestLen {
				best, bestLen = cand, l
			}
		}
		if bestLen < minMatch {
			i++
			continue
		}
		// Extend backward into pending literals.
		back := 0
		for i-litStart > back && best > back && ref[best-back-1] == target[i-back-1] {
			back++
		}
		out = appendInsert(out, target[litStart:i-back])
		out = append(out, opCopy)
		out = binary.AppendUvarint(out, uint64(best-back))
		out = binary.AppendUvarint(out, uint64(bestLen+back))
		i += bestLen
		litStart = i
	}
	e.out = appendInsert(out, target[litStart:])
	return e.out
}

// index rebuilds the chunk index over ref and returns the shift that
// turns a chunk hash into a bucket number. There are as many buckets as
// chunks, rounded up to a power of two. Chains are filled back to front
// so that each one lists its chunks in ascending offset order.
func (e *encoder) index(ref []byte, nChunks int) (shift uint) {
	width := bits.Len(uint(nChunks - 1))
	if size := 1 << width; cap(e.head) < size {
		e.head = make([]uint32, size)
	} else {
		e.head = e.head[:size]
		clear(e.head)
	}
	if cap(e.next) < nChunks {
		e.next = make([]uint32, nChunks)
	}
	e.next = e.next[:nChunks] // every element is written below
	shift = uint(64 - width)
	for c := nChunks - 1; c >= 0; c-- {
		p := ref[c*chunk:]
		b := hashChunk(load64(p), load64(p[8:])) >> shift
		e.next[c] = e.head[b]
		e.head[b] = uint32(c + 1)
	}
	return shift
}

// appendInsert appends lit as INSERT instructions of at most 64 KB each.
func appendInsert(out, lit []byte) []byte {
	for len(lit) > 0 {
		n := min(len(lit), 1<<16)
		out = append(out, opInsert)
		out = binary.AppendUvarint(out, uint64(n))
		out = append(out, lit[:n]...)
		lit = lit[n:]
	}
	return out
}

func load64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// hashChunk mixes a chunk's two words; the high bits index the table.
func hashChunk(lo, hi uint64) uint64 {
	return (lo*0x9E3779B97F4A7C15 ^ hi) * 0xC2B2AE3D27D4EB4F
}

// matchLen returns the length of the common prefix of a and b.
func matchLen(a, b []byte) int {
	if len(a) > len(b) {
		a = a[:len(b)]
	}
	b = b[:len(a)]
	n := 0
	for ; n+8 <= len(a); n += 8 {
		if x := load64(a[n:]) ^ load64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)/8
		}
	}
	for n < len(a) && a[n] == b[n] {
		n++
	}
	return n
}

// Apply reconstructs the target from ref and a delta produced by Encode.
func Apply(ref, delta []byte) ([]byte, error) {
	return ApplyInto(nil, ref, delta)
}

// ApplyInto is Apply into dst's backing array when the target the delta
// declares fits its capacity (dst's length and contents are ignored),
// and into a new slice otherwise; either way the result is exactly the
// declared length and shares no memory with ref. dst must not overlap
// ref or delta. On an error dst's contents are unspecified.
func ApplyInto(dst, ref, delta []byte) ([]byte, error) {
	getU := func() (uint64, error) {
		v, n := binary.Uvarint(delta)
		if n <= 0 {
			return 0, fmt.Errorf("delta: bad varint: %w", types.ErrCorrupt)
		}
		delta = delta[n:]
		return v, nil
	}
	tlen, err := getU()
	if err != nil {
		return nil, err
	}
	if tlen > MaxTarget {
		return nil, fmt.Errorf("delta: target length %d exceeds limit: %w", tlen, types.ErrCorrupt)
	}
	// Every append below is checked against tlen first, so out never
	// outgrows the array chosen here.
	out := dst[:0]
	if dst == nil || uint64(cap(dst)) < tlen {
		out = make([]byte, 0, tlen)
	}
	for len(delta) > 0 {
		op := delta[0]
		delta = delta[1:]
		switch op {
		case opCopy:
			off, err := getU()
			if err != nil {
				return nil, err
			}
			n, err := getU()
			if err != nil {
				return nil, err
			}
			// Two separate bounds checks: off+n can wrap uint64 on
			// hostile input, turning one comparison into a slice panic.
			if off > uint64(len(ref)) || n > uint64(len(ref))-off {
				return nil, fmt.Errorf("delta: copy beyond reference: %w", types.ErrCorrupt)
			}
			if uint64(len(out))+n > tlen {
				return nil, fmt.Errorf("delta: output exceeds declared length: %w", types.ErrCorrupt)
			}
			out = append(out, ref[off:off+n]...)
		case opInsert:
			n, err := getU()
			if err != nil {
				return nil, err
			}
			if n > uint64(len(delta)) {
				return nil, fmt.Errorf("delta: truncated insert: %w", types.ErrCorrupt)
			}
			if uint64(len(out))+n > tlen {
				return nil, fmt.Errorf("delta: output exceeds declared length: %w", types.ErrCorrupt)
			}
			out = append(out, delta[:n]...)
			delta = delta[n:]
		default:
			return nil, fmt.Errorf("delta: unknown opcode %#x: %w", op, types.ErrCorrupt)
		}
	}
	if uint64(len(out)) != tlen {
		return nil, fmt.Errorf("delta: reconstructed %d bytes, want %d: %w", len(out), tlen, types.ErrCorrupt)
	}
	return out, nil
}

// Compress DEFLATEs data (level 6, gzip's default trade-off).
func Compress(data []byte) ([]byte, error) {
	e := encoders.Get().(*encoder)
	defer e.release()
	c, err := e.deflate(data)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(c), nil
}

// deflate is Compress into e.zbuf; the result is valid until e's next
// use. Writer.Reset leaves the compressor as NewWriter would make it, so
// the stream does not depend on what e compressed before.
func (e *encoder) deflate(data []byte) ([]byte, error) {
	e.zbuf.Reset()
	if e.zw == nil {
		zw, err := flate.NewWriter(&e.zbuf, 6)
		if err != nil {
			return nil, err
		}
		e.zw = zw
	} else {
		e.zw.Reset(&e.zbuf)
	}
	if _, err := e.zw.Write(data); err != nil {
		return nil, err
	}
	if err := e.zw.Close(); err != nil {
		return nil, err
	}
	return e.zbuf.Bytes(), nil
}

// inflater is Decompress's pooled state, as encoder is Compress's: the
// ~40 KB flate reader is Reset per call, and the output is collected in
// a reused buffer so that the caller's copy is allocated once, at its
// final size.
type inflater struct {
	src bytes.Reader
	zr  io.ReadCloser // from flate.NewReader; also a flate.Resetter
	lim io.LimitedReader
	out bytes.Buffer
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

func (z *inflater) release() {
	z.src.Reset(nil)
	if z.out.Cap() > maxPooled {
		z.out = bytes.Buffer{}
	}
	inflaters.Put(z)
}

// Decompress inflates data produced by Compress. Output is bounded by
// MaxTarget so a hostile stream cannot force an unbounded allocation;
// every failure wraps types.ErrCorrupt.
func Decompress(data []byte) ([]byte, error) {
	z := inflaters.Get().(*inflater)
	defer z.release()
	z.src.Reset(data)
	if z.zr == nil {
		z.zr = flate.NewReader(&z.src)
	} else if err := z.zr.(flate.Resetter).Reset(&z.src, nil); err != nil {
		return nil, fmt.Errorf("delta: inflate: %v: %w", err, types.ErrCorrupt)
	}
	z.lim = io.LimitedReader{R: z.zr, N: MaxTarget + 1}
	z.out.Reset()
	if _, err := z.out.ReadFrom(&z.lim); err != nil {
		return nil, fmt.Errorf("delta: inflate: %v: %w", err, types.ErrCorrupt)
	}
	if z.out.Len() > MaxTarget {
		return nil, fmt.Errorf("delta: inflated output exceeds limit: %w", types.ErrCorrupt)
	}
	return bytes.Clone(z.out.Bytes()), nil
}
