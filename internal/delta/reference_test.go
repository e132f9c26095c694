package delta

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
)

// The encoder as it stood before it kept any state between calls (PR 9):
// a map of slices for the reference index, a 16-step FNV per position,
// byte-wise match extension, a byte-appended literal run and a new
// DEFLATE compressor per call. It is the oracle, not a second path: the
// contract of Encode, Compress and EncodeSlot is that they return what
// these return, byte for byte, and FuzzEncodeMatchesReference,
// TestEncodeConcurrent and TestEncodeSlotAllocs hold them to it.

func refEncode(ref, target []byte) []byte {
	var out []byte
	var tmp [binary.MaxVarintLen64]byte
	putU := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		out = append(out, tmp[:n]...)
	}
	// Header: target length.
	putU(uint64(len(target)))

	// Index the reference by content chunks.
	index := make(map[uint64][]int)
	if len(ref) >= chunk {
		for i := 0; i+chunk <= len(ref); i += chunk {
			h := refHashChunk(ref[i : i+chunk])
			index[h] = append(index[h], i)
		}
	}

	emitInsert := func(lit []byte) {
		for len(lit) > 0 {
			n := len(lit)
			if n > 1<<16 {
				n = 1 << 16
			}
			out = append(out, opInsert)
			putU(uint64(n))
			out = append(out, lit[:n]...)
			lit = lit[n:]
		}
	}

	var lit []byte
	i := 0
	for i+chunk <= len(target) {
		h := refHashChunk(target[i : i+chunk])
		best, bestLen := -1, 0
		for _, cand := range index[h] {
			if !bytes.Equal(ref[cand:cand+chunk], target[i:i+chunk]) {
				continue
			}
			// Extend the match forward.
			l := chunk
			for cand+l < len(ref) && i+l < len(target) && ref[cand+l] == target[i+l] {
				l++
			}
			if l > bestLen {
				best, bestLen = cand, l
			}
		}
		if bestLen >= minMatch {
			// Extend backward into pending literals.
			back := 0
			for len(lit) > back && best > back && ref[best-back-1] == target[i-back-1] {
				back++
			}
			lit = lit[:len(lit)-back]
			emitInsert(lit)
			lit = nil
			out = append(out, opCopy)
			putU(uint64(best - back))
			putU(uint64(bestLen + back))
			i += bestLen
			continue
		}
		lit = append(lit, target[i])
		i++
	}
	lit = append(lit, target[i:]...)
	emitInsert(lit)
	return out
}

func refHashChunk(b []byte) uint64 {
	// FNV-1a over the chunk.
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func refCompress(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, 6)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(data); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func refEncodeSlot(newer, old []byte, maxLen int) (Slot, bool) {
	enc := refEncode(newer, old)
	flate := false
	if c, err := refCompress(enc); err == nil && len(c) < len(enc) {
		enc, flate = c, true
	}
	if len(enc) > maxLen {
		return Slot{}, false
	}
	return Slot{Payload: enc, Flate: flate}, true
}
