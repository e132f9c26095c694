package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"s4/internal/audit"
	"s4/internal/seglog"
	"s4/internal/types"
	"s4/internal/vclock"
)

// This file wires the audit-record codec (internal/audit) into the
// drive. Every RPC — successful or not — appends a record; records are
// buffered and written as audit blocks through the segment log under the
// reserved audit object, which only the drive front end may write
// (§4.2.3). Audit blocks are not versioned.

// errnos is the stable audit/RPC code of each drive error: code i
// stands for errnos[i], and 0 for success. The codes are on the medium
// and on the wire, so a new error is only ever appended.
var errnos = [...]error{
	nil, types.ErrNoObject, types.ErrExist, types.ErrPerm, types.ErrAdminOnly, // 0-4
	types.ErrNoVersion, types.ErrInval, types.ErrNoSpace, types.ErrHistoryFull, types.ErrThrottled, // 5-9
	types.ErrNameTooLong, types.ErrNotEmpty, types.ErrCorrupt, types.ErrReadOnly, types.ErrBadHandle, // 10-14
	types.ErrAuthFailed, types.ErrTooLarge, types.ErrDriveStopped, types.ErrBusy, // 15-18
}

// Errno maps drive errors to stable audit/RPC codes: the lowest code
// whose error err wraps, or 255 for an error without a code of its own.
func Errno(err error) uint8 {
	if err == nil {
		return 0
	}
	for i, e := range errnos[1:] {
		if errors.Is(err, e) {
			return uint8(i + 1)
		}
	}
	return 255
}

// errRemote is what every code without an error of its own decodes to:
// one value, so errors.Is on it is stable.
var errRemote = errors.New("s4: remote error")

// ErrnoToError is the inverse of the audit/RPC error mapping.
func ErrnoToError(code uint8) error {
	if int(code) < len(errnos) {
		return errnos[code]
	}
	return errRemote
}

// captureBytes sizes the per-record request image. The paper's audit
// log stores each command's full arguments, including the RPC framing
// and authentication material that arrives at the security perimeter;
// that is what makes a record a few hundred bytes (§5.1.4's "one disk
// write approximately every 750 operations" implies ~350B/record for a
// 256KB segment). Direct in-process calls have no wire image, so the
// drive synthesizes an equivalently sized capture.
const captureBytes = 256

// requestCapture builds the request image in raw, captureBytes long, and
// returns it.
func requestCapture(raw []byte, cred types.Cred, op types.Op, obj types.ObjectID, off, length uint64, arg string) []byte {
	clear(raw)
	raw[0] = byte(op)
	binary.LittleEndian.PutUint64(raw[1:], uint64(cred.User))
	binary.LittleEndian.PutUint64(raw[9:], uint64(cred.Client))
	binary.LittleEndian.PutUint64(raw[17:], uint64(obj))
	binary.LittleEndian.PutUint64(raw[25:], off)
	binary.LittleEndian.PutUint64(raw[33:], length)
	copy(raw[41:], arg)
	return raw
}

// auditPending is one record buffered in Drive.auditBlk.
type auditPending struct {
	end  int // offset just past the record's bytes
	seq  uint64
	time types.Timestamp
}

// auditOp appends one audit record for a just-executed request. Caller
// holds the drive lock in either mode; the audit pipeline itself is
// serialized by auditMu so concurrent requests interleave their records
// in a single sequence.
//
// A record is encoded once, straight into the audit block being filled
// (auditBlk, behind the room left for the block's header), from a
// capture built in a buffer the drive reuses. Once a record overflows
// the block, the records before it are written as one block and the
// record moves up to start the next, so every audit block but one a
// checkpoint flushes is full.
func (d *Drive) auditOp(cred types.Cred, op types.Op, obj types.ObjectID, off, length uint64, arg string, err error) {
	d.statsMu.Lock()
	d.stats.Ops[op]++
	d.statsMu.Unlock()
	if d.opts.DisableAudit {
		return
	}
	d.auditMu.Lock()
	d.auditSeq++
	if d.auditRaw == nil {
		d.auditRaw = make([]byte, captureBytes)
		d.auditBlk = make([]byte, audit.BlockHeaderSize, 2*seglog.BlockSize) // a block and the record overflowing it
	}
	rec := audit.Record{
		Seq: d.auditSeq, Time: vclock.TS(d.clk),
		Client: cred.Client, User: cred.User,
		Op: op, Obj: obj, Offset: off, Length: length, Arg: arg,
		Raw: requestCapture(d.auditRaw, cred, op, obj, off, length, arg),
		OK:  err == nil, Errno: Errno(err),
	}
	d.auditBlk = rec.Encode(d.auditBlk)
	d.auditPend = append(d.auditPend, auditPending{end: len(d.auditBlk), seq: rec.Seq, time: rec.Time})
	for len(d.auditBlk) > seglog.BlockSize {
		if d.writeAuditBlockLocked() != nil {
			break // the records stay buffered; the next record retries
		}
	}
	d.auditMu.Unlock()
	d.statsMu.Lock()
	d.stats.AuditRecords++
	d.statsMu.Unlock()
}

// flushAuditLocked writes every buffered audit record, the last block
// as full as the records make it; on failure the unwritten records stay
// buffered. Caller holds auditMu.
func (d *Drive) flushAuditLocked() error {
	for len(d.auditPend) > 0 {
		if err := d.writeAuditBlockLocked(); err != nil {
			return err
		}
	}
	return nil
}

// writeAuditBlockLocked writes the longest run of buffered records that
// fits a block as one audit block: normally all of them, fewer only when
// earlier writes failed and records piled up past a block. Caller holds
// auditMu (the segment log and usage counters are internally
// synchronized).
func (d *Drive) writeAuditBlockLocked() error {
	n := len(d.auditPend)
	for n > 0 && d.auditPend[n-1].end > seglog.BlockSize {
		n--
	}
	if n == 0 {
		return fmt.Errorf("core: audit record larger than a block: %w", types.ErrTooLarge)
	}
	end := d.auditPend[n-1].end
	blk := d.auditBlk[:end]
	audit.FinishBlock(blk, n)
	first, last := d.auditPend[0], d.auditPend[n-1]
	addr, err := d.log.Append(seglog.KindAudit, types.AuditObject, first.seq, last.time, blk)
	if err != nil {
		return err
	}
	d.usage.liveBorn(segOf(d.log, addr))
	d.auditBlocks = append(d.auditBlocks, auditBlockRef{addr: addr, firstSeq: first.seq, lastTime: last.time})
	// Move what is left up behind the header.
	kept := copy(d.auditBlk[audit.BlockHeaderSize:], d.auditBlk[end:])
	d.auditBlk = d.auditBlk[:audit.BlockHeaderSize+kept]
	d.auditPend = append(d.auditPend[:0], d.auditPend[n:]...)
	for i := range d.auditPend {
		d.auditPend[i].end -= end - audit.BlockHeaderSize
	}
	return nil
}

// auditRefIndex returns the position in refs of the ref whose firstSeq
// is seq, or -1. A ref's firstSeq is the summary key its block was
// appended under, and d.auditBlocks is ordered by it, strictly: blocks
// are written in record order, the cleaner moves a block without
// changing its key, and recovery appends only blocks the checkpoint
// postdates (CheckInvariants holds the order).
func auditRefIndex(refs []auditBlockRef, seq uint64) int {
	i, ok := slices.BinarySearchFunc(refs, seq, func(r auditBlockRef, s uint64) int {
		return cmp.Compare(r.firstSeq, s)
	})
	if !ok {
		return -1
	}
	return i
}

// AuditRead returns up to max audit records with Seq >= fromSeq
// (administrative: the audit log reveals every principal's activity).
// It runs under the shared drive lock: flushed audit blocks are
// immutable and the shared hold keeps the cleaner from freeing them,
// so only the buffered tail needs the audit mutex.
func (d *Drive) AuditRead(cred types.Cred, fromSeq uint64, max int) ([]audit.Record, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	recs, err := d.auditReadShared(cred, fromSeq, max)
	d.auditOp(cred, types.OpAuditRead, types.AuditObject, fromSeq, uint64(max), "", err)
	return recs, err
}

// auditReadShared implements AuditRead. Caller holds the shared drive
// lock but not auditMu.
func (d *Drive) auditReadShared(cred types.Cred, fromSeq uint64, max int) ([]audit.Record, error) {
	if err := d.adminGate(cred, types.OpAuditRead); err != nil {
		return nil, err
	}
	if max <= 0 || max > 100000 {
		max = 100000
	}
	// Snapshot the block list and buffered tail, then scan without
	// auditMu: concurrent auditOps may append records, but those
	// post-date this request.
	d.auditMu.Lock()
	blocks := append([]auditBlockRef(nil), d.auditBlocks...)
	var tail []byte
	if len(d.auditPend) > 0 {
		tail = bytes.Clone(d.auditBlk[audit.BlockHeaderSize:])
	}
	d.auditMu.Unlock()
	var out []audit.Record
	buf := make([]byte, seglog.BlockSize)
	for _, ref := range blocks {
		if len(out) >= max {
			return out[:max], nil
		}
		// Skip blocks wholly before fromSeq: the next block's firstSeq
		// tells us this block's range end.
		if err := d.log.Read(ref.addr, buf); err != nil {
			return nil, err
		}
		recs, err := audit.DecodeBlock(buf)
		if err != nil {
			return nil, err
		}
		if len(recs) > 0 && recs[len(recs)-1].Seq < fromSeq {
			continue
		}
		for _, r := range recs {
			if r.Seq >= fromSeq {
				out = append(out, r)
			}
		}
	}
	for len(tail) > 0 {
		r, rest, err := audit.Decode(tail)
		if err != nil {
			return nil, err
		}
		if r.Seq >= fromSeq {
			out = append(out, r)
		}
		tail = rest
	}
	if len(out) > max {
		out = out[:max]
	}
	return out, nil
}
