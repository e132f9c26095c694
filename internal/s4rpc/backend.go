package s4rpc

import (
	"time"

	"s4/internal/audit"
	"s4/internal/core"
	"s4/internal/types"
)

// Backend is the drive-facing op surface: exactly the method set of
// core.Drive that Table 1 (plus the recovery and status extensions)
// reaches. A *core.Drive satisfies it directly; Dispatch turns one into
// the Handler a Server runs.
type Backend interface {
	Create(cred types.Cred, acl []types.ACLEntry, attr []byte) (types.ObjectID, error)
	CreateWithID(cred types.Cred, id types.ObjectID, acl []types.ACLEntry, attr []byte) error
	Delete(cred types.Cred, id types.ObjectID) error
	Read(cred types.Cred, id types.ObjectID, off, n uint64, at types.Timestamp) ([]byte, error)
	Write(cred types.Cred, id types.ObjectID, off uint64, data []byte) error
	Append(cred types.Cred, id types.ObjectID, data []byte) (uint64, error)
	Truncate(cred types.Cred, id types.ObjectID, size uint64) error
	GetAttr(cred types.Cred, id types.ObjectID, at types.Timestamp) (core.AttrInfo, error)
	SetAttr(cred types.Cred, id types.ObjectID, attr []byte) error
	GetACLByUser(cred types.Cred, id types.ObjectID, user types.UserID, at types.Timestamp) (types.ACLEntry, error)
	GetACLByIndex(cred types.Cred, id types.ObjectID, idx int, at types.Timestamp) (types.ACLEntry, error)
	SetACL(cred types.Cred, id types.ObjectID, idx int, e types.ACLEntry) error
	PCreate(cred types.Cred, name string, id types.ObjectID) error
	PDelete(cred types.Cred, name string) error
	PList(cred types.Cred, at types.Timestamp) ([]core.PartEntry, error)
	PMount(cred types.Cred, name string, at types.Timestamp) (types.ObjectID, error)
	Sync(cred types.Cred) error
	SyncObj(cred types.Cred, id types.ObjectID) error
	Flush(cred types.Cred, from, to types.Timestamp) error
	FlushO(cred types.Cred, id types.ObjectID, from, to types.Timestamp) error
	SetWindow(cred types.Cred, w time.Duration) error
	SetPolicy(cred types.Cred, id types.ObjectID, p types.Policy) error
	GetPolicy(cred types.Cred, id types.ObjectID) (types.Policy, bool, error)
	ListVersions(cred types.Cred, id types.ObjectID) ([]core.VersionInfo, error)
	Revert(cred types.Cred, id types.ObjectID, at types.Timestamp) error
	AuditRead(cred types.Cred, fromSeq uint64, max int) ([]audit.Record, error)
	Scrub(cred types.Cred) (core.ScrubResult, error)
	Status() core.StatusInfo
	GetStats() core.Stats
}

// Handler executes one request under an authenticated credential. It
// is the op surface between a Server and whatever stands behind it: a
// drive (Dispatch), a remote drive (shard.Remote) or a shard router.
// A Handler never sees OpBatch — the Server unpacks batches — and
// returns a reply the caller owns, non-nil whenever the error is nil.
// On an error the Server sends only the errno and the retry-after
// hint; the reply beside it (a fan-out's reachable shards' results)
// serves in-process callers.
type Handler func(cred types.Cred, req *Request) (*Response, error)

// Dispatch is the one mapping from an op to a typed drive method.
func Dispatch(drv Backend) Handler {
	return func(cred types.Cred, req *Request) (*Response, error) {
		resp := new(Response)
		var err error
		switch req.Op {
		case types.OpCreate:
			// Obj != 0 selects explicit-ID creation (no separate op code:
			// audit blocks persist op codes, and a plain Create never
			// carries an object). The shard router uses it so the ring —
			// not the shard — owns ID allocation.
			if req.Obj != 0 {
				resp.Obj, err = req.Obj, drv.CreateWithID(cred, req.Obj, req.ACL, req.Attr)
			} else {
				resp.Obj, err = drv.Create(cred, req.ACL, req.Attr)
			}
		case types.OpDelete:
			err = drv.Delete(cred, req.Obj)
		case types.OpRead:
			resp.Data, err = drv.Read(cred, req.Obj, req.Offset, req.Length, req.At)
		case types.OpWrite:
			err = drv.Write(cred, req.Obj, req.Offset, req.Data)
		case types.OpAppend:
			resp.Offset, err = drv.Append(cred, req.Obj, req.Data)
		case types.OpTruncate:
			err = drv.Truncate(cred, req.Obj, req.Length)
		case types.OpGetAttr:
			resp.Attr, err = drv.GetAttr(cred, req.Obj, req.At)
		case types.OpSetAttr:
			err = drv.SetAttr(cred, req.Obj, req.Attr)
		case types.OpGetACLByUser:
			resp.ACL, err = drv.GetACLByUser(cred, req.Obj, types.UserID(req.Offset), req.At)
		case types.OpGetACLByIndex:
			resp.ACL, err = drv.GetACLByIndex(cred, req.Obj, req.ACLIdx, req.At)
		case types.OpSetACL:
			err = types.ErrInval
			if len(req.ACL) == 1 {
				err = drv.SetACL(cred, req.Obj, req.ACLIdx, req.ACL[0])
			}
		case types.OpPCreate:
			err = drv.PCreate(cred, req.Name, req.Obj)
		case types.OpPDelete:
			err = drv.PDelete(cred, req.Name)
		case types.OpPList:
			resp.Parts, err = drv.PList(cred, req.At)
		case types.OpPMount:
			resp.Obj, err = drv.PMount(cred, req.Name, req.At)
		case types.OpSync:
			// Obj != 0 narrows the sync to one object so a shard router
			// can route it to a single shard instead of broadcasting.
			if req.Obj != 0 {
				err = drv.SyncObj(cred, req.Obj)
			} else {
				err = drv.Sync(cred)
			}
		case types.OpFlush:
			err = drv.Flush(cred, req.From, req.To)
		case types.OpFlushO:
			err = drv.FlushO(cred, req.Obj, req.From, req.To)
		case types.OpSetWindow:
			err = drv.SetWindow(cred, req.Window)
		case types.OpSetPolicy:
			err = drv.SetPolicy(cred, req.Obj, req.Policy)
		case types.OpGetPolicy:
			resp.Policy, resp.PolicyOwn, err = drv.GetPolicy(cred, req.Obj)
		case types.OpListVersions:
			resp.Versions, err = drv.ListVersions(cred, req.Obj)
			if req.Max > 0 && len(resp.Versions) > req.Max {
				resp.Versions = resp.Versions[:req.Max]
			}
		case types.OpRevert:
			err = drv.Revert(cred, req.Obj, req.At)
		case types.OpAuditRead:
			resp.Records, err = drv.AuditRead(cred, req.Seq, req.Max)
		case types.OpStatus:
			resp.Status = drv.Status()
		case types.OpStats:
			resp.Stats = drv.GetStats()
		case types.OpScrub:
			resp.Scrub, err = drv.Scrub(cred)
		default:
			err = types.ErrUnimplProto
		}
		return resp, err
	}
}
