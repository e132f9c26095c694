package s4rpc

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"s4/internal/audit"
	"s4/internal/core"
	"s4/internal/types"
	"s4/internal/xdr"
)

// The wire format. The tables in this file and in DESIGN.md §10 are the
// whole specification. Everything is XDR (internal/xdr): big-endian,
// 4-byte aligned, opaques and strings as length + bytes + zero padding.
//
//	frame   = length u32 | body     length <= MaxFrame (maxHelloFrame before authentication)
//	message = op u32 | mask u32 | ID u64 | each field whose mask bit is set, in bit order
//
// Requests and replies share the message layout; a reply echoes its
// request's op and ID. Bit i of the mask stands for row i of the
// message's field table below, and the bit after the last row for its
// batch: count x message, at the top level only. A field travels iff
// it is not its zero value, so a frame holds only what its op uses, and
// nil and empty are one thing. Unknown mask bits, trailing bytes, and
// any length or count larger than the bytes that follow it are decode
// errors.
const (
	// protoMagic opens every Hello and HelloReply: "S4R" and the
	// protocol version. A peer presenting another value is refused.
	protoMagic uint32 = 'S'<<24 | '4'<<16 | 'R'<<8 | 1

	frameHdrLen = 4  // the length prefix
	msgHdrLen   = 16 // op, mask, ID
	macLen      = sha256.Size

	// maxHelloFrame is the largest (with a full MAC, the only) Hello: magic,
	// client, user, admin, session u64, MAC opaque. Nothing larger is
	// read from an unauthenticated peer.
	maxHelloFrame = 5*4 + 8 + macLen
	// helloReplyLen: magic, errno. Like the nonce frame, this layout
	// does not change with the version, so version skew is reported.
	helloReplyLen = 2 * 4
	// handshakeBytes is what a connection exchanges before its first
	// request: the nonce, Hello and HelloReply frames.
	handshakeBytes = 3*frameHdrLen + nonceLen + maxHelloFrame + helloReplyLen

	// maxEntries bounds the two counts whose elements decode into
	// structs far larger than their wire minimum (batch entries and
	// per-shard stats), so a lying count cannot buy a large allocation.
	maxEntries = 1024
)

var (
	// ErrProtocol refuses a handshake with a peer that speaks another
	// protocol or protocol version. Retrying cannot help.
	ErrProtocol = errors.New("s4rpc: peer speaks a different protocol version")

	errBadFrame    = errors.New("s4rpc: malformed frame")
	errNestedBatch = fmt.Errorf("%w: a batch entry cannot be a batch", errBadFrame)
)

var requestFields = []field[Request]{
	num(func(r *Request) *types.ObjectID { return &r.Obj }),                // 0  u64
	num(func(r *Request) *types.Timestamp { return &r.At }),                // 1  i64
	num(func(r *Request) *uint64 { return &r.Offset }),                     // 2  u64
	num(func(r *Request) *uint64 { return &r.Length }),                     // 3  u64
	row(func(r *Request) *[]byte { return &r.Data }, dataElem),             // 4  opaque
	row(func(r *Request) *string { return &r.Name }, textElem),             // 5  string
	list(func(r *Request) *[]types.ACLEntry { return &r.ACL }, aclElem, 0), // 6  count x (user u32, perm u32)
	num(func(r *Request) *int { return &r.ACLIdx }),                        // 7  i64
	row(func(r *Request) *[]byte { return &r.Attr }, blobElem),             // 8  opaque
	word(func(r *Request) *types.UserID { return &r.User }),                // 9  u32
	num(func(r *Request) *types.Timestamp { return &r.From }),              // 10 i64
	num(func(r *Request) *types.Timestamp { return &r.To }),                // 11 i64
	num(func(r *Request) *time.Duration { return &r.Window }),              // 12 i64
	row(func(r *Request) *types.Policy { return &r.Policy }, policyElem),   // 13 window i64, mode u32, delta bool
	num(func(r *Request) *uint64 { return &r.Seq }),                        // 14 u64
	num(func(r *Request) *int { return &r.Max }),                           // 15 i64
} // 16 batch

var responseFields = []field[Response]{
	word(func(r *Response) *uint8 { return &r.Errno }),                                    // 0  u32 <= 255
	num(func(r *Response) *time.Duration { return &r.RetryAfter }),                        // 1  i64
	row(func(r *Response) *[]byte { return &r.Data }, blobElem),                           // 2  opaque
	num(func(r *Response) *types.ObjectID { return &r.Obj }),                              // 3  u64
	num(func(r *Response) *uint64 { return &r.Offset }),                                   // 4  u64
	row(func(r *Response) *core.AttrInfo { return &r.Attr }, attrElem),                    // 5  id, version, size u64; create, mod i64; deleted bool; attr opaque
	row(func(r *Response) *types.ACLEntry { return &r.ACL }, aclElem),                     // 6  user u32, perm u32
	list(func(r *Response) *[]core.PartEntry { return &r.Parts }, partElem, 0),            // 7  count x (name string, obj u64)
	list(func(r *Response) *[]core.VersionInfo { return &r.Versions }, versionElem, 0),    // 8  count x (version u64, time i64, op string, user u32, client u32, size u64)
	list(func(r *Response) *[]audit.Record { return &r.Records }, recordElem, 0),          // 9  count x (shard u32, opaque audit.Record.Encode)
	row(func(r *Response) *core.StatusInfo { return &r.Status }, statusElem),              // 10 counters, then suspects: count x client u32
	row(func(r *Response) *core.Stats { return &r.Stats }, statsElem),                     // 11 stats
	list(func(r *Response) *[]core.Stats { return &r.ShardStats }, statsElem, maxEntries), // 12 count x stats
	row(func(r *Response) *core.ScrubResult { return &r.Scrub }, scrubElem),               // 13 counters
	row(func(r *Response) *types.Policy { return &r.Policy }, policyElem),                 // 14 as request row 13
	row(func(r *Response) *bool { return &r.PolicyOwn }, boolElem),                        // 15 bool
} // 16 batch

var (
	requestLayout = layout[Request]{requestFields,
		func(r *Request) (*types.Op, *uint64, *[]Request) { return &r.Op, &r.ID, &r.Batch }}
	responseLayout = layout[Response]{responseFields,
		func(r *Response) (*types.Op, *uint64, *[]Response) { return &r.Op, &r.ID, &r.Batch }}
)

// ---- struct forms ----

var (
	aclElem = elem[types.ACLEntry]{8,
		func(e *xdr.Encoder, a *types.ACLEntry) { e.Uint32(uint32(a.User)); e.Uint32(uint32(a.Perm)) },
		func(rd *reader, a *types.ACLEntry) {
			a.User, a.Perm = types.UserID(rd.Uint32()), types.Perm(rd.Uint32())
		}}
	policyElem = elem[types.Policy]{16,
		func(e *xdr.Encoder, p *types.Policy) {
			e.Uint64(uint64(p.Window))
			e.Uint32(uint32(p.Mode))
			e.Bool(p.DeltaEnabled)
		},
		func(rd *reader, p *types.Policy) {
			p.Window, p.Mode, p.DeltaEnabled = time.Duration(rd.Uint64()), narrow[types.PolicyMode](rd), rd.Bool()
		}}
	attrElem = elem[core.AttrInfo]{48,
		func(e *xdr.Encoder, a *core.AttrInfo) {
			for _, v := range [...]uint64{uint64(a.ID), a.Version, a.Size, uint64(a.CreateTime), uint64(a.ModTime)} {
				e.Uint64(v)
			}
			e.Bool(a.Deleted)
			e.Opaque(a.Attr)
		},
		func(rd *reader, a *core.AttrInfo) {
			a.ID, a.Version, a.Size = types.ObjectID(rd.Uint64()), rd.Uint64(), rd.Uint64()
			a.CreateTime, a.ModTime = types.Timestamp(rd.Uint64()), types.Timestamp(rd.Uint64())
			a.Deleted, a.Attr = rd.Bool(), rd.bytes(false)
		}}
	partElem = elem[core.PartEntry]{12,
		func(e *xdr.Encoder, p *core.PartEntry) { e.String(p.Name); e.Uint64(uint64(p.Obj)) },
		func(rd *reader, p *core.PartEntry) { p.Name, p.Obj = rd.String(0), types.ObjectID(rd.Uint64()) }}
	versionElem = elem[core.VersionInfo]{36,
		func(e *xdr.Encoder, v *core.VersionInfo) {
			e.Uint64(v.Version)
			e.Uint64(uint64(v.Time))
			e.String(v.Op)
			e.Uint32(uint32(v.User))
			e.Uint32(uint32(v.Client))
			e.Uint64(v.Size)
		},
		func(rd *reader, v *core.VersionInfo) {
			v.Version, v.Time, v.Op = rd.Uint64(), types.Timestamp(rd.Uint64()), rd.String(0)
			v.User, v.Client, v.Size = types.UserID(rd.Uint32()), types.ClientID(rd.Uint32()), rd.Uint64()
		}}
	// Record.Encode is the audit log's on-disk form, which has no shard.
	recordElem = elem[audit.Record]{20,
		func(e *xdr.Encoder, r *audit.Record) {
			e.Uint32(uint32(r.Shard))
			at := reserve(e)
			b := r.Encode(e.Bytes())
			n := len(b) - at - 4
			for len(b)%4 != 0 {
				b = append(b, 0)
			}
			e.Reset(b)
			patch(e, at, uint32(n))
		},
		func(rd *reader, r *audit.Record) {
			shard, raw := rd.Uint32(), rd.Opaque(0)
			if rd.Err() != nil {
				return
			}
			rec, rest, err := audit.Decode(raw) // copies what it keeps
			if err == nil && len(rest) != 0 {
				err = fmt.Errorf("%w: %d bytes after an audit record", errBadFrame, len(rest))
			}
			rd.Fail(err)
			*r, r.Shard = rec, int(shard)
		}}
	clientElem = wordElem[types.ClientID]()
	statusElem = elem[core.StatusInfo]{8,
		func(e *xdr.Encoder, s *core.StatusInfo) {
			putCounters(e, statusSchema, s)
			putList(e, s.Suspects, clientElem)
		},
		func(rd *reader, s *core.StatusInfo) {
			getCounters(rd, statusSchema, s)
			s.Suspects = getList(rd, clientElem, 0)
		}}
	scrubElem = elem[core.ScrubResult]{4,
		func(e *xdr.Encoder, s *core.ScrubResult) { putCounters(e, scrubSchema, s) },
		func(rd *reader, s *core.ScrubResult) { getCounters(rd, scrubSchema, s) }}
	// stats = counters, then the per-op counts: count x (op u32, i64).
	statsElem = elem[core.Stats]{8,
		func(e *xdr.Encoder, st *core.Stats) {
			putCounters(e, statsSchema, st)
			at, n := reserve(e), uint32(0)
			// In op order, so the encoding repeats exactly; over every
			// code, so a relay passes on the ops of a newer peer.
			for op := 0; op <= 0xFF && len(st.Ops) > 0; op++ {
				if x := st.Ops[types.Op(op)]; x != 0 {
					e.Uint32(uint32(op))
					e.Uint64(uint64(x))
					n++
				}
			}
			patch(e, at, n)
		},
		func(rd *reader, st *core.Stats) {
			getCounters(rd, statsSchema, st)
			for n := rd.count(12, 0); n > 0 && rd.Err() == nil; n-- {
				if op, x := narrow[types.Op](rd), int64(rd.Uint64()); x != 0 {
					if st.Ops == nil {
						st.Ops = make(map[types.Op]int64)
					}
					st.Ops[op] = x
				}
			}
		}}
)

// ---- messages ----

// layout is a message type's field table plus the three things every
// message has: op, ID and batch entries.
type layout[M any] struct {
	fields []field[M]
	head   func(*M) (*types.Op, *uint64, *[]M)
}

// put appends m as one message. Only a top-level message may carry a
// batch: §4.1.2's batches are flat lists.
func (l *layout[M]) put(e *xdr.Encoder, m *M, top bool) error {
	op, id, batch := l.head(m)
	if n := len(*batch); !top && (*op == types.OpBatch || n > 0) {
		return errNestedBatch
	} else if n > maxEntries {
		return fmt.Errorf("s4rpc: batch of %d entries: %w", n, types.ErrTooLarge)
	}
	e.Uint32(uint32(*op))
	at, mask := reserve(e), uint32(0)
	e.Uint64(*id)
	for i := range l.fields {
		if l.fields[i].put(e, m) {
			mask |= 1 << i
		}
	}
	if len(*batch) > 0 {
		mask |= 1 << len(l.fields)
		e.Uint32(uint32(len(*batch)))
		for i := range *batch {
			if err := l.put(e, &(*batch)[i], false); err != nil {
				return err
			}
		}
	}
	patch(e, at, mask)
	return nil
}

func (l *layout[M]) get(rd *reader, m *M, top bool) {
	op, id, batch := l.head(m)
	var mask uint32
	*op, mask, *id = narrow[types.Op](rd), rd.Uint32(), rd.Uint64()
	batchBit := uint32(1) << len(l.fields)
	switch {
	case mask >= batchBit<<1:
		rd.Fail(fmt.Errorf("%w: unknown field bits in mask %#x", errBadFrame, mask))
	case !top && (*op == types.OpBatch || mask&batchBit != 0):
		rd.Fail(errNestedBatch)
	}
	for i := 0; i < len(l.fields) && rd.Err() == nil; i++ {
		if mask&(1<<i) != 0 {
			l.fields[i].get(rd, m)
		}
	}
	if mask&batchBit != 0 {
		if n := rd.count(msgHdrLen, maxEntries); n > 0 {
			*batch = make([]M, n)
			for i := 0; i < n && rd.Err() == nil; i++ {
				l.get(rd, &(*batch)[i], false)
			}
		}
	}
}

// decode reads one whole frame into a zeroed m.
func (l *layout[M]) decode(frame []byte, m *M, alias bool) error {
	rd := newReader(frame, alias)
	var zero M
	*m = zero
	l.get(&rd, m, true)
	return rd.finish()
}

// putHello and putHelloReply are the handshake's encoders, in the shape
// writeFrame takes.
func putHello(h *Hello) func(*xdr.Encoder) error {
	return func(e *xdr.Encoder) error {
		e.Uint32(protoMagic)
		e.Uint32(uint32(h.Client))
		e.Uint32(uint32(h.User))
		e.Bool(h.Admin)
		e.Uint64(h.Session)
		e.Opaque(h.MAC)
		return nil
	}
}

// decodeHello vets the magic before it reads anything else.
func decodeHello(frame []byte) (Hello, error) {
	rd := newReader(frame, false)
	if rd.Uint32() != protoMagic {
		return Hello{}, ErrProtocol
	}
	h := Hello{Client: types.ClientID(rd.Uint32()), User: types.UserID(rd.Uint32()), Admin: rd.Bool(), Session: rd.Uint64()}
	h.MAC = append(h.MAC, rd.Opaque(macLen)...)
	return h, rd.finish()
}

func putHelloReply(errno uint8) func(*xdr.Encoder) error {
	return func(e *xdr.Encoder) error {
		e.Uint32(protoMagic)
		e.Uint32(uint32(errno))
		return nil
	}
}

func decodeHelloReply(frame []byte) (errno uint8, err error) {
	rd := newReader(frame, false)
	if len(frame) != helloReplyLen || rd.Uint32() != protoMagic {
		return 0, ErrProtocol
	}
	return narrow[uint8](&rd), rd.finish()
}
