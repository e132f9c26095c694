package shard

import (
	"time"

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

// Do sends one request to the shard over the session matching the
// credential; it is the Remote's s4rpc.Handler. Non-admin requests
// forward the per-request user inside the gate's authenticated client
// session (the server narrows, never escalates); admin requests ride
// the admin session and fail cleanly when none was configured. The
// caller's request is never written.
func (r *Remote) Do(cred types.Cred, req *s4rpc.Request) (*s4rpc.Response, error) {
	c, sub := r.cli, *req
	if cred.Admin {
		if r.adm == nil {
			return nil, types.ErrAuthFailed
		}
		c = r.adm
	} else {
		sub.User = cred.User
	}
	resp, err := c.Call(&sub)
	if err != nil {
		return nil, err
	}
	return resp, resp.Err()
}
