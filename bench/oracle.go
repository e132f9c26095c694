package main

import "encoding/binary"

// The oracle: every byte the benchmark writes is a pure function of
// (seed, client, object-or-file, position, version), so any read —
// live, historical, over NFS, or after a restart — is checked
// byte-for-byte by regenerating the expected bytes instead of storing
// payloads.

// mix is the splitmix64 step; chained it gives a keyed 64-bit stream.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// key folds the identifying tuple into one stream key.
func key(seed int64, parts ...uint64) uint64 {
	k := mix(uint64(seed))
	for _, p := range parts {
		k = mix(k ^ p)
	}
	return k
}

// fillStream writes words first, first+1, ... of stream k into dst,
// whose length is a multiple of 8.
func fillStream(dst []byte, k, first uint64) {
	for i := 0; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], mix(k+first))
		first++
	}
}

const blockSize = 4096

// hotBlock fills dst (one block) with version ver of a block of the
// rpc_hot_mix working set: the version number, then keyed noise, so
// consecutive versions share nothing.
func hotBlock(dst []byte, seed int64, client, obj, blk int, ver uint64) {
	binary.LittleEndian.PutUint64(dst, ver)
	fillStream(dst[8:blockSize], key(seed, uint64(client), uint64(obj), uint64(blk), ver), 0)
}

// hotVersion reads back the version a hot block claims to be.
func hotVersion(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// churnTail is the per-block, per-version part of a churn span; the
// rest of each block never changes, so reverse deltas stay tiny (the
// shape of `s4bench -churn`).
const churnTail = 40

// churnBody fills dst with the version-independent body of obj's span.
func churnBody(dst []byte, client, obj int) {
	for i := range dst {
		dst[i] = byte(i*7 + obj + 31*client)
	}
}

// churnSpan stamps version ver into dst, which already holds the body.
func churnSpan(dst []byte, seed int64, client, obj int, ver uint64) {
	for blk := 0; (blk+1)*blockSize <= len(dst); blk++ {
		t := dst[(blk+1)*blockSize-churnTail : (blk+1)*blockSize]
		binary.LittleEndian.PutUint64(t, ver)
		fillStream(t[8:], key(seed, uint64(client), uint64(obj), uint64(blk), ver), 0)
	}
}

// churnVersion reads back the version a churn span claims to be.
func churnVersion(span []byte) uint64 {
	return binary.LittleEndian.Uint64(span[blockSize-churnTail:])
}

// fileBytes fills dst with bytes [off, off+len(dst)) of a postmark
// file: a file's content depends only on its identity and the offset,
// so appends extend it and a whole-file read checks in one pass.
func fileBytes(dst []byte, seed int64, client, file, off int) {
	k := key(seed, uint64(client), uint64(file))
	var w [8]byte
	for i := 0; i < len(dst); {
		pos := off + i
		binary.LittleEndian.PutUint64(w[:], mix(k+uint64(pos/8)))
		i += copy(dst[i:], w[pos%8:])
	}
}
