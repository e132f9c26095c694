// Package s4rpc implements the S4 drive's network protocol: the RPC set
// of Table 1 (OSDI '00, §4.1.1) carried over TCP.
//
// The security perimeter (§3.2) lives here: every connection performs a
// challenge–response handshake before any command is accepted, binding
// the session to a ClientID whose secret key the drive knows. The
// administrative commands (SetWindow, Flush, FlushO, AuditRead) require
// the session to have authenticated with the drive's administrator key —
// a client credential, however thoroughly stolen, can never reach them.
// Per §4.1.2, the protocol also supports batching several commands in
// one round trip.
//
// Framing: 4-byte big-endian length + one message in a fixed XDR layout
// (codec.go; DESIGN.md §10 has the table): op, field-presence mask, ID,
// then the present fields in one canonical order, for requests and
// replies alike, so a frame carries only what its op uses. Request and
// Response below are the in-memory API; nothing self-describing crosses
// the perimeter — no reflection decoder, no peer-supplied types (no
// gob). Every length and count is bounded by the bytes that follow it,
// a frame by MaxFrame, and the frames of an unauthenticated peer by the
// handshake's constant sizes. Each frame is written with one Write from
// a pooled buffer and normally read with one read (frame.go).
//
// Wire failure model (DESIGN.md §10): the transport is assumed lossy
// and hostile. Sessions carry a client-chosen 64-bit session ID that
// survives reconnects, and every request carries a per-session
// monotonic ID. The server keeps the last executed (ID, reply) per
// session, so a retransmitted request whose reply was lost on the wire
// is answered from the cache instead of executing — and auditing —
// twice. This turns the client's at-least-once retry loop into
// exactly-once execution for every acknowledged mutation.
package s4rpc

import (
	"time"

	"s4/internal/audit"
	"s4/internal/core"
	"s4/internal/types"
)

// Protocol constants.
const (
	// MaxFrame bounds one message (a write carries at most MaxIO).
	MaxFrame = types.MaxIO + 1<<16
	// nonceLen is the handshake challenge size.
	nonceLen = 32
)

// Hello is the client's handshake message, answering the server's
// nonce challenge.
type Hello struct {
	Client types.ClientID
	User   types.UserID
	// MAC is HMAC-SHA256(key, nonce) where key is the client's secret
	// (or the administrator key for admin sessions).
	MAC   []byte
	Admin bool
	// Session is a client-chosen identifier that survives reconnects;
	// presenting the same Session after a redial resumes the server's
	// duplicate-reply cache for this (Client, Session) pair. Zero
	// disables duplicate suppression (legacy sessions).
	Session uint64
}

// Request is one S4 command. Exactly the fields relevant to Op are set.
type Request struct {
	Op  types.Op
	Obj types.ObjectID
	// ID is the per-session monotonic request number. A transport-level
	// retransmission (reply lost) reuses the ID so the server can detect
	// the duplicate; a fresh attempt after a definitive answer (ErrBusy,
	// ErrThrottled) allocates a new one. Zero = unnumbered, no duplicate
	// suppression.
	ID uint64
	// At is the optional time parameter of Table 1's time-based
	// operations; TimeNowest reads the current version.
	At     types.Timestamp
	Offset uint64
	Length uint64
	Data   []byte
	Name   string
	ACL    []types.ACLEntry
	ACLIdx int
	Attr   []byte
	User   types.UserID // per-request user (NFS-style credentials)
	From   types.Timestamp
	To     types.Timestamp
	Window time.Duration
	// Policy is OpSetPolicy's payload; Obj selects the target (0 = the
	// drive-wide default).
	Policy types.Policy
	Seq    uint64 // AuditRead: starting sequence
	Max    int    // AuditRead/ListVersions: result bound
	// Batch carries sub-requests executed in order (§4.1.2); the reply
	// carries per-entry results.
	Batch []Request
}

// Response carries one command's result.
type Response struct {
	// Op and ID echo the request's, so a client can detect a
	// desynchronized reply stream (ID is zero for unnumbered requests).
	Op types.Op
	ID uint64
	// RetryAfter is the server's suggested wait before retrying, set
	// only with a retryable Errno (ErrBusy: queue shed; ErrThrottled:
	// abuse penalty, §3.3).
	RetryAfter time.Duration
	Errno      uint8
	Data       []byte
	Obj        types.ObjectID
	Offset     uint64
	Attr       core.AttrInfo
	ACL        types.ACLEntry
	Parts      []core.PartEntry
	Versions   []core.VersionInfo
	Records    []audit.Record
	Status     core.StatusInfo
	Stats      core.Stats
	// ShardStats is the per-shard breakdown behind an aggregated Stats
	// reply, in ring order; empty when the backend is a single drive.
	ShardStats []core.Stats
	// Scrub summarizes an on-demand integrity sweep (OpScrub).
	Scrub core.ScrubResult
	// Policy answers OpGetPolicy; PolicyOwn reports whether the object
	// has its own entry (false = inherited drive default).
	Policy    types.Policy
	PolicyOwn bool
	Batch     []Response
}

// Err converts the wire errno back into a Go error (nil when 0). A
// retryable error with a server-supplied wait hint is reconstructed as
// a types.RetryableError; errors.Is sees through to the base class.
func (r *Response) Err() error {
	err := core.ErrnoToError(r.Errno)
	if err != nil && r.RetryAfter > 0 && types.Retryable(err) {
		return &types.RetryableError{Err: err, After: r.RetryAfter}
	}
	return err
}
