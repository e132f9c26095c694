package s4rpc

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"s4/internal/core"
	"s4/internal/disk"
	"s4/internal/netfault"
	"s4/internal/types"
	"s4/internal/vclock"
)

// SoakConfig parameterizes one network-fault soak run (RunFaultSoak).
type SoakConfig struct {
	// Seed drives the deterministic fault schedules: shard i runs under
	// Seed+i.
	Seed int64
	// Shards is how many drives run, each behind its own Server and
	// fault listener (0 = 1).
	Shards int
	// Objects is how many objects the soak appends to, one worker each
	// (0 = 1).
	Objects int
	// Ops is the number of marker appends each object's worker attempts
	// (0 = 200).
	Ops int
	// Workers bounds how many requests each server runs at once (0 =
	// default).
	Workers int
	// IOTimeout is each server's per-frame deadline (0 = none).
	IOTimeout time.Duration
	// KillFor, when set, blackholes the shard that owns the first object
	// for that long once a quarter of the total work is acked.
	KillFor time.Duration
	// Fault is the injection schedule every shard's listener runs (Seed
	// overridden per shard).
	Fault netfault.Config
	// Connect says how the workers reach the shards; nil means one
	// Client on shard 0.
	Connect SoakConnector
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// SoakConnector dials the shards listening at addrs. base holds the
// soak's client identity, key and retry tuning, Addr unset.
type SoakConnector func(addrs []string, base Config) (SoakConn, error)

// SoakConn is a soak's way to its shards: Do sends a request to the
// shard that owns it, ShardOf names an object's shard (nil: shard 0),
// Stats reports client counters (nil: none), and Close drops every
// session, doing nothing when called again.
type SoakConn struct {
	Do      Handler
	ShardOf func(types.ObjectID) int
	Stats   func() Stats
	Close   func() error
}

// SoakResult reports what one soak run did and survived.
type SoakResult struct {
	Victim          int              // shard blackholed and restored (KillFor set)
	Attempted       int              // marker appends issued across all objects
	Acked           int              // appends acknowledged to the workers
	Present         int              // markers found in the objects afterward
	AckedDuringKill int              // acks landed on other shards while the victim was dark
	Client          Stats            // client counters; zero when the connection reports none
	Fault           []netfault.Stats // per shard
}

// SoakDial calls dial until it succeeds, 101 tries at most: the fault
// schedule can cut or blackhole the very first handshake, and any
// client facing such a listener must keep dialing.
func SoakDial[T any](dial func() (T, error)) (T, error) {
	for attempt := 0; ; attempt++ {
		v, err := dial()
		if err == nil || attempt > 100 {
			return v, err
		}
	}
}

// dialClient is the default connector: one Client on shard 0.
func dialClient(addrs []string, base Config) (SoakConn, error) {
	base.Addr, base.MaxAttempts = addrs[0], 60
	c, err := SoakDial(func() (*Client, error) { return DialConfig(base) })
	if err != nil {
		return SoakConn{}, err
	}
	do := func(_ types.Cred, req *Request) (*Response, error) { return c.call1(req) }
	return SoakConn{Do: do, Stats: c.Stats, Close: c.Close}, nil
}

// The soaks' cut budgets, in terms of what the codec puts on the wire.
// Each connection is severed after a byte budget drawn uniformly from
// [SoakCutMin, SoakCutMax] (netfault.Config.CutMin/CutMax). The low end
// falls inside the handshake, so some connections never authenticate;
// the high end admits the handshake and a few marker appends, so every
// connection makes a little progress at best and then forces a
// reconnect. A budget of many exchanges would let connections finish
// dozens of ops and the soaks would stop proving anything.
const (
	// soakExchangeBytes bounds one marker append and its reply: two
	// frame and message headers, Obj, the forwarded User, the marker as
	// an opaque, and the Offset that comes back.
	soakExchangeBytes = 2*(frameHdrLen+msgHdrLen) + 8 + 8 + (4 + 12) + 8

	SoakCutMin = handshakeBytes / 2
	SoakCutMax = handshakeBytes + 4*soakExchangeBytes
)

// SoakMarker is the soaks' marker format: fixed-width so content
// parsing is trivial and any torn or duplicated append is unmissable.
func SoakMarker(i int) string { return fmt.Sprintf("|op%06d", i) }

// VerifyMarkers is the soaks' exactly-once oracle for one object of
// drive d that cred may read; acked[i] says whether the append of
// marker i was acknowledged. It checks that the object holds whole
// markers, none twice, in issue order, with every acked one present,
// and that the audit log shows one successful append, and the history
// one write version, per present marker. It returns how many markers
// are present.
func VerifyMarkers(d *core.Drive, cred types.Cred, obj types.ObjectID, acked []bool) (present int, err error) {
	ai, err := d.GetAttr(cred, obj, types.TimeNowest)
	if err != nil {
		return 0, fmt.Errorf("oracle getattr: %w", err)
	}
	data, err := d.Read(cred, obj, 0, ai.Size, types.TimeNowest)
	if err != nil {
		return 0, fmt.Errorf("oracle read: %w", err)
	}
	mlen := len(SoakMarker(0))
	if len(data)%mlen != 0 {
		return 0, fmt.Errorf("object size %d not a whole number of markers (torn append)", len(data))
	}
	seen := make(map[int]int)
	prev := -1
	for p := 0; p < len(data); p += mlen {
		var i int
		if _, err := fmt.Sscanf(string(data[p:p+mlen]), "|op%06d", &i); err != nil {
			return 0, fmt.Errorf("garbage marker %q at %d", data[p:p+mlen], p)
		}
		if seen[i]++; seen[i] > 1 {
			return 0, fmt.Errorf("marker %d appears %d times: duplicate execution", i, seen[i])
		}
		if i <= prev {
			return 0, fmt.Errorf("marker %d after %d: ordering violated", i, prev)
		}
		prev = i
		present++
	}
	for i, ok := range acked {
		if ok && seen[i] == 0 {
			return 0, fmt.Errorf("acked marker %d missing: lost acknowledged write", i)
		}
	}

	// Audit log: one successful append record per present marker —
	// suppressed duplicates must leave no second evidence entry.
	admin := types.AdminCred()
	recs, err := d.AuditRead(admin, 0, 1<<20)
	if err != nil {
		return 0, fmt.Errorf("oracle audit read: %w", err)
	}
	var okAppends int
	for _, r := range recs {
		if r.Op == types.OpAppend && r.Obj == obj && r.OK {
			okAppends++
		}
	}
	if okAppends != present {
		return 0, fmt.Errorf("audit shows %d successful appends, object holds %d markers", okAppends, present)
	}

	// Version history: exactly one write version per executed append
	// (creation and ACL setup journal under their own entry types).
	vs, err := d.ListVersions(admin, obj)
	if err != nil {
		return 0, fmt.Errorf("oracle versions: %w", err)
	}
	var writes int
	for _, v := range vs {
		if v.Op == "write" {
			writes++
		}
	}
	if writes != present {
		return 0, fmt.Errorf("%d write versions for %d present markers", writes, present)
	}
	return present, nil
}

// RunFaultSoak is the end-to-end exactly-once proof. It formats one
// fresh in-memory drive per shard, serves each through a fault-injecting
// listener (cuts mid-frame, silent drops, latency spikes), and has one
// worker per object append ordered markers while the client's retry
// machinery fights the faults. With KillFor set, the shard that owns
// the first object is blackholed mid-soak (every byte dropped, live
// connections severed) and later restored. It then verifies the ground
// truth against an oracle:
//
//   - every acknowledged append appears in its object exactly once;
//   - no marker — acked or not — appears more than once, despite every
//     retransmission (a lost reply may leave an unacked marker behind:
//     at-most-once is the strongest claim possible for unacked ops);
//   - markers appear in issue order (the session serializes);
//   - the audit log records exactly one successful append per present
//     marker — duplicate suppression left no phantom evidence (§3.3);
//   - the version history has exactly one version per present marker;
//   - with a kill, the other shards kept acknowledging appends while
//     the victim was dark — a one-shard outage is a partial outage;
//   - every drive passes core.CheckInvariants, and after a
//     crash-equivalent close and recovery replay every object still
//     reads back identically.
//
// Any violation returns a non-nil error describing it.
func RunFaultSoak(cfg SoakConfig) (SoakResult, error) {
	var res SoakResult
	cfg.Shards = max(cfg.Shards, 1)
	cfg.Objects = max(cfg.Objects, 1)
	if cfg.Ops <= 0 {
		cfg.Ops = 200
	}
	if cfg.Connect == nil {
		cfg.Connect = dialClient
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	opts := core.Options{
		Clock: vclock.Wall{}, SegBlocks: 16, CheckpointBlocks: 16,
		Window: time.Hour, SurfaceThrottle: true,
	}
	clientKey := []byte("soak-client-key")

	// ---- one drive + server + fault listener per shard ----
	devs := make([]*disk.Disk, cfg.Shards)
	drvs := make([]*core.Drive, cfg.Shards)
	srvs := make([]*Server, cfg.Shards)
	lns := make([]*netfault.Listener, cfg.Shards)
	addrs := make([]string, cfg.Shards)
	serveDone := make([]chan struct{}, cfg.Shards)
	stopServers := func() {
		for i := range srvs {
			if srvs[i] != nil {
				_ = srvs[i].Close()
				<-serveDone[i]
				srvs[i] = nil
			}
		}
	}
	defer func() {
		stopServers()
		for _, d := range drvs {
			if d != nil {
				_ = d.Close()
			}
		}
	}()
	for i := range drvs {
		devs[i] = disk.New(disk.SmallDisk(64<<20), nil)
		drv, err := core.Format(devs[i], opts)
		if err != nil {
			return res, err
		}
		drvs[i] = drv
		keys := NewKeyring([]byte("soak-admin-key"))
		keys.AddClient(1, clientKey)
		srv := NewServer(drv, keys)
		if cfg.Workers > 0 {
			srv.SetWorkers(cfg.Workers)
		}
		if cfg.IOTimeout > 0 {
			srv.SetIOTimeout(cfg.IOTimeout)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return res, err
		}
		fcfg := cfg.Fault
		fcfg.Seed = cfg.Seed + int64(i)
		srvs[i], lns[i], addrs[i] = srv, netfault.Wrap(ln, fcfg), ln.Addr().String()
		serveDone[i] = make(chan struct{})
		go func(i int) { defer close(serveDone[i]); _ = srvs[i].Serve(lns[i]) }(i)
	}

	// Short timeouts keep the soak brisk; the connector's many attempts
	// let each session outlast any streak of cut or blackholed
	// connections.
	conn, err := cfg.Connect(addrs, Config{
		Client: 1, User: 100, Key: clientKey,
		DialTimeout: 250 * time.Millisecond, CallTimeout: 300 * time.Millisecond,
		BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond,
	})
	if err != nil {
		return res, fmt.Errorf("soak: connect: %w", err)
	}
	defer func() { _ = conn.Close() }()
	shardOf := conn.ShardOf
	if shardOf == nil {
		shardOf = func(types.ObjectID) int { return 0 }
	}

	cred := types.Cred{User: 100, Client: 1}
	acl := []types.ACLEntry{{User: 100, Perm: types.PermRead | types.PermWrite}}
	objs := make([]types.ObjectID, cfg.Objects)
	for i := range objs {
		resp, err := conn.Do(cred, &Request{Op: types.OpCreate, ACL: acl})
		if err != nil {
			return res, fmt.Errorf("soak: create object %d: %w", i, err)
		}
		objs[i] = resp.Obj
	}
	victim := shardOf(objs[0])
	if cfg.KillFor > 0 {
		res.Victim = victim
		healthy := false
		for _, id := range objs {
			healthy = healthy || shardOf(id) != victim
		}
		if !healthy {
			return res, fmt.Errorf("soak: every object landed on the victim shard %d — no healthy traffic to observe", victim)
		}
	}

	// ---- workers: one per object, ordered markers, shared ack counters ----
	var totalAcked atomic.Int64
	var healthyAcked atomic.Int64 // acks on shards other than the victim
	acked := make([][]bool, cfg.Objects)
	var wg sync.WaitGroup
	for w := range objs {
		acked[w] = make([]bool, cfg.Ops)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			onVictim := shardOf(objs[w]) == victim
			for i := 0; i < cfg.Ops; i++ {
				req := &Request{Op: types.OpAppend, Obj: objs[w], Data: []byte(SoakMarker(i))}
				if _, err := conn.Do(cred, req); err == nil {
					acked[w][i] = true
					totalAcked.Add(1)
					if !onVictim {
						healthyAcked.Add(1)
					}
				}
				if w == 0 && i%50 == 49 {
					logf("soak: object 0 at %d/%d ops, %d acked in all", i+1, cfg.Ops, totalAcked.Load())
				}
			}
		}(w)
	}

	// ---- the kill: blackhole the victim once the soak is warm ----
	killDone := make(chan struct{})
	go func() {
		defer close(killDone)
		if cfg.KillFor <= 0 {
			return
		}
		for totalAcked.Load() < int64(cfg.Objects*cfg.Ops/4) {
			time.Sleep(5 * time.Millisecond)
		}
		before := healthyAcked.Load()
		lns[victim].SetDrop(true)
		lns[victim].CutAll()
		logf("soak: shard %d blackholed at %d total acks", victim, totalAcked.Load())
		time.Sleep(cfg.KillFor)
		res.AckedDuringKill = int(healthyAcked.Load() - before)
		lns[victim].SetDrop(false)
		logf("soak: shard %d restored; %d healthy-shard acks during the outage", victim, res.AckedDuringKill)
	}()
	wg.Wait()
	<-killDone

	res.Attempted = cfg.Objects * cfg.Ops
	res.Acked = int(totalAcked.Load())
	if conn.Stats != nil {
		res.Client = conn.Stats()
	}
	for _, ln := range lns {
		res.Fault = append(res.Fault, ln.Stats())
	}
	if cfg.KillFor > 0 && res.AckedDuringKill == 0 {
		return res, fmt.Errorf("soak: healthy shards acknowledged nothing while shard %d was dark — outage was total", victim)
	}

	// ---- teardown the wire: the oracle runs against the drives ----
	_ = conn.Close()
	stopServers()

	verify := func() error {
		res.Present = 0
		for w, obj := range objs {
			n, err := VerifyMarkers(drvs[shardOf(obj)], cred, obj, acked[w])
			if err != nil {
				return fmt.Errorf("object %d: %w", obj, err)
			}
			res.Present += n
		}
		for i, d := range drvs {
			if err := d.CheckInvariants(); err != nil {
				return fmt.Errorf("shard %d invariants: %w", i, err)
			}
		}
		return nil
	}
	if err := verify(); err != nil {
		return res, err
	}

	// Recovery finale: force durability, tear every drive down, and
	// replay — the exactly-once story must survive a restart.
	for i := range drvs {
		if err := drvs[i].Sync(types.AdminCred()); err != nil {
			return res, fmt.Errorf("shard %d sync: %w", i, err)
		}
		err := drvs[i].Close()
		drvs[i] = nil
		if err != nil {
			return res, fmt.Errorf("shard %d close: %w", i, err)
		}
		if drvs[i], err = core.Open(devs[i], opts); err != nil {
			return res, fmt.Errorf("shard %d recovery open: %w", i, err)
		}
	}
	if err := verify(); err != nil {
		return res, fmt.Errorf("after recovery replay: %w", err)
	}
	logf("soak: %d attempted, %d acked, %d present, %d retries, %d reconnects, faults %+v",
		res.Attempted, res.Acked, res.Present, res.Client.Retries, res.Client.Reconnects, res.Fault)
	return res, nil
}
