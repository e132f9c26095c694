package shard

import (
	"time"

	"s4/internal/audit"
	"s4/internal/core"
	"s4/internal/s4rpc"
	"s4/internal/types"
)

// RemoteConfig identifies one shard's s4d endpoint and the credentials
// a gate presents to it.
type RemoteConfig struct {
	Addr string
	// Client/Key authenticate the gate's client session on the shard.
	// Behind a gate, shard audit logs attribute requests to this
	// client identity; per-request user identity is forwarded
	// unchanged (DESIGN.md §13).
	Client types.ClientID
	Key    []byte
	// AdminKey, when set, opens a second, administrative session used
	// only for requests arriving under an admin credential. Leaving it
	// empty makes every admin operation fail with ErrAuthFailed rather
	// than silently escalate.
	AdminKey []byte

	// Resilience tuning, passed through to both sessions
	// (s4rpc.Config semantics; zero values take s4rpc defaults).
	DialTimeout time.Duration
	CallTimeout time.Duration
	MaxAttempts int
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

// Remote is one shard reached over the wire. Each Remote owns its own
// exactly-once session pair — independent session IDs, request-ID
// spaces, and server-side last-reply caches per shard — so a retry
// storm against one shard cannot desynchronize another, and a
// reconnect resumes duplicate suppression exactly where that shard
// left off.
type Remote struct {
	cli *s4rpc.Client // client-credential session
	adm *s4rpc.Client // admin session; nil without AdminKey
}

// NewRemote dials the shard. The client session is established
// eagerly (a shard that cannot handshake is a configuration error
// worth failing fast on); the admin session too when AdminKey is set.
func NewRemote(cfg RemoteConfig) (*Remote, error) {
	base := s4rpc.Config{
		Addr: cfg.Addr, Client: cfg.Client, Key: cfg.Key,
		DialTimeout: cfg.DialTimeout, CallTimeout: cfg.CallTimeout,
		MaxAttempts: cfg.MaxAttempts,
		BackoffBase: cfg.BackoffBase, BackoffMax: cfg.BackoffMax,
	}
	cli, err := s4rpc.DialConfig(base)
	if err != nil {
		return nil, err
	}
	r := &Remote{cli: cli}
	if len(cfg.AdminKey) > 0 {
		acfg := base
		acfg.User, acfg.Key, acfg.Admin = types.AdminUser, cfg.AdminKey, true
		adm, err := s4rpc.DialConfig(acfg)
		if err != nil {
			cli.Close()
			return nil, err
		}
		r.adm = adm
	}
	return r, nil
}

// Close drops both sessions.
func (r *Remote) Close() error {
	err := r.cli.Close()
	if r.adm != nil {
		if aerr := r.adm.Close(); err == nil {
			err = aerr
		}
	}
	return err
}

// call routes one request over the session matching the credential.
// Non-admin requests forward the per-request user inside the gate's
// authenticated client session (the server narrows, never escalates);
// admin requests ride the admin session and fail cleanly when none was
// configured.
func (r *Remote) call(cred types.Cred, req *s4rpc.Request) (*s4rpc.Response, error) {
	c := r.cli
	if cred.Admin {
		if r.adm == nil {
			return nil, types.ErrAuthFailed
		}
		c = r.adm
	} else {
		req.User = cred.User
	}
	resp, err := c.Call(req)
	if err != nil {
		return nil, err
	}
	if e := resp.Err(); e != nil {
		return resp, e
	}
	return resp, nil
}

func (r *Remote) Create(cred types.Cred, acl []types.ACLEntry, attr []byte) (types.ObjectID, error) {
	resp, err := r.call(cred, &s4rpc.Request{Op: types.OpCreate, ACL: acl, Attr: attr})
	if err != nil {
		return 0, err
	}
	return resp.Obj, nil
}

func (r *Remote) CreateWithID(cred types.Cred, id types.ObjectID, acl []types.ACLEntry, attr []byte) error {
	_, err := r.call(cred, &s4rpc.Request{Op: types.OpCreate, Obj: id, ACL: acl, Attr: attr})
	return err
}

func (r *Remote) Delete(cred types.Cred, id types.ObjectID) error {
	_, err := r.call(cred, &s4rpc.Request{Op: types.OpDelete, Obj: id})
	return err
}

func (r *Remote) Read(cred types.Cred, id types.ObjectID, off, n uint64, at types.Timestamp) ([]byte, error) {
	resp, err := r.call(cred, &s4rpc.Request{Op: types.OpRead, Obj: id, Offset: off, Length: n, At: at})
	if err != nil {
		return nil, err
	}
	return resp.Data, nil
}

func (r *Remote) Write(cred types.Cred, id types.ObjectID, off uint64, data []byte) error {
	_, err := r.call(cred, &s4rpc.Request{Op: types.OpWrite, Obj: id, Offset: off, Data: data})
	return err
}

func (r *Remote) Append(cred types.Cred, id types.ObjectID, data []byte) (uint64, error) {
	resp, err := r.call(cred, &s4rpc.Request{Op: types.OpAppend, Obj: id, Data: data})
	if err != nil {
		return 0, err
	}
	return resp.Offset, nil
}

func (r *Remote) Truncate(cred types.Cred, id types.ObjectID, size uint64) error {
	_, err := r.call(cred, &s4rpc.Request{Op: types.OpTruncate, Obj: id, Length: size})
	return err
}

func (r *Remote) GetAttr(cred types.Cred, id types.ObjectID, at types.Timestamp) (core.AttrInfo, error) {
	resp, err := r.call(cred, &s4rpc.Request{Op: types.OpGetAttr, Obj: id, At: at})
	if err != nil {
		return core.AttrInfo{}, err
	}
	return resp.Attr, nil
}

func (r *Remote) SetAttr(cred types.Cred, id types.ObjectID, attr []byte) error {
	_, err := r.call(cred, &s4rpc.Request{Op: types.OpSetAttr, Obj: id, Attr: attr})
	return err
}

func (r *Remote) GetACLByUser(cred types.Cred, id types.ObjectID, user types.UserID, at types.Timestamp) (types.ACLEntry, error) {
	resp, err := r.call(cred, &s4rpc.Request{Op: types.OpGetACLByUser, Obj: id, Offset: uint64(user), At: at})
	if err != nil {
		return types.ACLEntry{}, err
	}
	return resp.ACL, nil
}

func (r *Remote) GetACLByIndex(cred types.Cred, id types.ObjectID, idx int, at types.Timestamp) (types.ACLEntry, error) {
	resp, err := r.call(cred, &s4rpc.Request{Op: types.OpGetACLByIndex, Obj: id, ACLIdx: idx, At: at})
	if err != nil {
		return types.ACLEntry{}, err
	}
	return resp.ACL, nil
}

func (r *Remote) SetACL(cred types.Cred, id types.ObjectID, idx int, e types.ACLEntry) error {
	_, err := r.call(cred, &s4rpc.Request{Op: types.OpSetACL, Obj: id, ACLIdx: idx, ACL: []types.ACLEntry{e}})
	return err
}

func (r *Remote) PCreate(cred types.Cred, name string, id types.ObjectID) error {
	_, err := r.call(cred, &s4rpc.Request{Op: types.OpPCreate, Name: name, Obj: id})
	return err
}

func (r *Remote) PDelete(cred types.Cred, name string) error {
	_, err := r.call(cred, &s4rpc.Request{Op: types.OpPDelete, Name: name})
	return err
}

func (r *Remote) PList(cred types.Cred, at types.Timestamp) ([]core.PartEntry, error) {
	resp, err := r.call(cred, &s4rpc.Request{Op: types.OpPList, At: at})
	if err != nil {
		return nil, err
	}
	return resp.Parts, nil
}

func (r *Remote) PMount(cred types.Cred, name string, at types.Timestamp) (types.ObjectID, error) {
	resp, err := r.call(cred, &s4rpc.Request{Op: types.OpPMount, Name: name, At: at})
	if err != nil {
		return 0, err
	}
	return resp.Obj, nil
}

func (r *Remote) Sync(cred types.Cred) error {
	_, err := r.call(cred, &s4rpc.Request{Op: types.OpSync})
	return err
}

func (r *Remote) SyncObj(cred types.Cred, id types.ObjectID) error {
	_, err := r.call(cred, &s4rpc.Request{Op: types.OpSync, Obj: id})
	return err
}

func (r *Remote) Flush(cred types.Cred, from, to types.Timestamp) error {
	_, err := r.call(cred, &s4rpc.Request{Op: types.OpFlush, From: from, To: to})
	return err
}

func (r *Remote) FlushO(cred types.Cred, id types.ObjectID, from, to types.Timestamp) error {
	_, err := r.call(cred, &s4rpc.Request{Op: types.OpFlushO, Obj: id, From: from, To: to})
	return err
}

func (r *Remote) SetWindow(cred types.Cred, w time.Duration) error {
	_, err := r.call(cred, &s4rpc.Request{Op: types.OpSetWindow, Window: w})
	return err
}

func (r *Remote) SetPolicy(cred types.Cred, id types.ObjectID, p types.Policy) error {
	_, err := r.call(cred, &s4rpc.Request{Op: types.OpSetPolicy, Obj: id, Policy: p})
	return err
}

func (r *Remote) GetPolicy(cred types.Cred, id types.ObjectID) (types.Policy, bool, error) {
	resp, err := r.call(cred, &s4rpc.Request{Op: types.OpGetPolicy, Obj: id})
	if err != nil {
		return types.Policy{}, false, err
	}
	return resp.Policy, resp.PolicyOwn, nil
}

func (r *Remote) ListVersions(cred types.Cred, id types.ObjectID) ([]core.VersionInfo, error) {
	resp, err := r.call(cred, &s4rpc.Request{Op: types.OpListVersions, Obj: id})
	if err != nil {
		return nil, err
	}
	return resp.Versions, nil
}

func (r *Remote) Revert(cred types.Cred, id types.ObjectID, at types.Timestamp) error {
	_, err := r.call(cred, &s4rpc.Request{Op: types.OpRevert, Obj: id, At: at})
	return err
}

func (r *Remote) AuditRead(cred types.Cred, fromSeq uint64, max int) ([]audit.Record, error) {
	resp, err := r.call(cred, &s4rpc.Request{Op: types.OpAuditRead, Seq: fromSeq, Max: max})
	if err != nil {
		return nil, err
	}
	return resp.Records, nil
}

// StatusErr is the fallible status fetch the router prefers.
func (r *Remote) StatusErr() (core.StatusInfo, error) {
	resp, err := r.call(types.Cred{}, &s4rpc.Request{Op: types.OpStatus})
	if err != nil {
		return core.StatusInfo{}, err
	}
	return resp.Status, nil
}

// Status satisfies the single-drive surface; errors surface through
// StatusErr.
func (r *Remote) Status() core.StatusInfo {
	st, _ := r.StatusErr()
	return st
}

// GetStatsErr is the fallible counter fetch the router prefers.
func (r *Remote) GetStatsErr() (core.Stats, error) {
	resp, err := r.call(types.Cred{}, &s4rpc.Request{Op: types.OpStats})
	if err != nil {
		return core.Stats{}, err
	}
	return resp.Stats, nil
}

// GetStats satisfies the single-drive surface; errors surface through
// GetStatsErr.
func (r *Remote) GetStats() core.Stats {
	st, _ := r.GetStatsErr()
	return st
}

// Scrub forwards the on-demand integrity sweep to the shard.
func (r *Remote) Scrub(cred types.Cred) (core.ScrubResult, error) {
	resp, err := r.call(cred, &s4rpc.Request{Op: types.OpScrub})
	if err != nil {
		return core.ScrubResult{}, err
	}
	return resp.Scrub, nil
}

var (
	_ s4rpc.Backend     = (*Remote)(nil)
	_ s4rpc.StatusErrer = (*Remote)(nil)
	_ statsErrer        = (*Remote)(nil)
	_ s4rpc.Scrubber    = (*Remote)(nil)
)
