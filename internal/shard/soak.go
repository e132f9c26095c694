package shard

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"s4/internal/core"
	"s4/internal/disk"
	"s4/internal/netfault"
	"s4/internal/s4rpc"
	"s4/internal/types"
	"s4/internal/vclock"
)

// SoakConfig parameterizes one sharded network-fault soak
// (RunShardFaultSoak).
type SoakConfig struct {
	// Seed drives the deterministic per-shard fault schedules (shard i
	// runs under Seed+i).
	Seed int64
	// Shards is the cluster size (0 = 4).
	Shards int
	// Objects is how many objects the workers spread over the cluster
	// (0 = 2*Shards, so every shard very likely owns at least one).
	Objects int
	// Ops is the number of marker appends each object's worker
	// attempts (0 = 120).
	Ops int
	// KillAfter is the total-ack threshold that triggers the shard
	// kill (0 = a quarter of the total work).
	KillAfter int
	// KillFor is how long the victim shard stays blackholed
	// (0 = 1200ms).
	KillFor time.Duration
	// Fault is the baseline injection schedule every shard's listener
	// runs continuously (Seed overridden per shard).
	Fault netfault.Config
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// SoakResult reports what one sharded soak run did and survived.
type SoakResult struct {
	Victim          int              // shard index that was killed and restored
	Attempted       int              // marker appends issued across all objects
	Acked           int              // appends acknowledged to the workers
	Present         int              // markers found in the objects afterward
	AckedDuringKill int              // acks landed on healthy shards while the victim was dark
	Fault           []netfault.Stats // per shard
}

// RunShardFaultSoak is the sharded exactly-once proof: N drives behind
// fault-injecting listeners, a router of per-shard Remote sessions, one
// worker per object appending ordered markers. Mid-soak the victim
// shard — the owner of the first object — is blackholed (every byte
// dropped, live connections severed) and later restored. The run then
// verifies:
//
//   - healthy shards kept acknowledging appends while the victim was
//     dark — a one-shard outage is a partial outage, not a cluster one;
//   - per object, the single-drive exactly-once oracle holds despite
//     the kill, the restore, and every retransmission in between:
//     markers present at most once, in issue order, every acked marker
//     present, audit showing exactly one successful append per present
//     marker, one write version per present marker;
//   - each shard passes core.CheckInvariants, and each shard's drive
//     recovers by journal replay to the identical contents.
//
// Any violation returns a non-nil error describing it.
func RunShardFaultSoak(cfg SoakConfig) (SoakResult, error) {
	var res SoakResult
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Objects <= 0 {
		cfg.Objects = 2 * cfg.Shards
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 120
	}
	if cfg.KillAfter <= 0 {
		cfg.KillAfter = cfg.Objects * cfg.Ops / 4
	}
	if cfg.KillFor <= 0 {
		cfg.KillFor = 1200 * time.Millisecond
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	opts := core.Options{
		Clock: vclock.Wall{}, SegBlocks: 16, CheckpointBlocks: 16,
		Window: time.Hour, SurfaceThrottle: true,
	}
	clientKey := []byte("shard-soak-client-key")
	adminKey := []byte("shard-soak-admin-key")

	// ---- one drive + server + fault listener per shard ----
	devs := make([]*disk.Disk, cfg.Shards)
	drvs := make([]*core.Drive, cfg.Shards)
	srvs := make([]*s4rpc.Server, cfg.Shards)
	lns := make([]*netfault.Listener, cfg.Shards)
	serveDone := make([]chan struct{}, cfg.Shards)
	defer func() {
		for i := range srvs {
			if srvs[i] != nil {
				_ = srvs[i].Close()
				<-serveDone[i]
			}
		}
		for _, d := range drvs {
			if d != nil {
				_ = d.Close()
			}
		}
	}()
	for i := 0; i < cfg.Shards; i++ {
		devs[i] = disk.New(disk.SmallDisk(64<<20), nil)
		drv, err := core.Format(devs[i], opts)
		if err != nil {
			return res, err
		}
		drvs[i] = drv
		keys := s4rpc.NewKeyring(adminKey)
		keys.AddClient(1, clientKey)
		srvs[i] = s4rpc.NewServer(drv, keys)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return res, err
		}
		fcfg := cfg.Fault
		fcfg.Seed = cfg.Seed + int64(i)
		lns[i] = netfault.Wrap(ln, fcfg)
		serveDone[i] = make(chan struct{})
		go func(i int) { defer close(serveDone[i]); _ = srvs[i].Serve(lns[i]) }(i)
	}

	// ---- router over one Remote session pair per shard ----
	handlers := make([]s4rpc.Handler, cfg.Shards)
	remotes := make([]*Remote, cfg.Shards)
	defer func() {
		for _, rm := range remotes {
			if rm != nil {
				_ = rm.Close()
			}
		}
	}()
	for i := 0; i < cfg.Shards; i++ {
		// The fault schedule can cut or blackhole the very first
		// handshake; keep dialing until a session lands, like any
		// client facing this listener must.
		var rm *Remote
		for attempt := 0; ; attempt++ {
			var err error
			rm, err = NewRemote(RemoteConfig{
				Addr: lns[i].Addr().String(), Client: 1, Key: clientKey, AdminKey: adminKey,
				DialTimeout: 250 * time.Millisecond, CallTimeout: 300 * time.Millisecond,
				MaxAttempts: 80, BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond,
			})
			if err == nil {
				break
			}
			if attempt > 100 {
				return res, fmt.Errorf("soak: dial shard %d: %w", i, err)
			}
		}
		remotes[i] = rm
		handlers[i] = rm.Do
	}
	router, err := New(handlers, Options{FanTimeout: 30 * time.Second})
	if err != nil {
		return res, fmt.Errorf("soak: router: %w", err)
	}

	cred := types.Cred{User: 100, Client: 1}
	acl := []types.ACLEntry{{User: 100, Perm: types.PermRead | types.PermWrite}}
	objs := make([]types.ObjectID, cfg.Objects)
	for i := range objs {
		resp, err := router.Do(cred, &s4rpc.Request{Op: types.OpCreate, ACL: acl})
		if err != nil {
			return res, fmt.Errorf("soak: create object %d: %w", i, err)
		}
		objs[i] = resp.Obj
	}
	victim := router.ShardOf(objs[0])
	res.Victim = victim
	healthyObjs := 0
	for _, id := range objs {
		if router.ShardOf(id) != victim {
			healthyObjs++
		}
	}
	if healthyObjs == 0 {
		return res, fmt.Errorf("soak: every object landed on the victim shard %d — no healthy traffic to observe", victim)
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
			obj := objs[w]
			onVictim := router.ShardOf(obj) == victim
			for i := 0; i < cfg.Ops; i++ {
				req := &s4rpc.Request{Op: types.OpAppend, Obj: obj, Data: []byte(s4rpc.SoakMarker(i))}
				if _, err := router.Do(cred, req); err == nil {
					acked[w][i] = true
					totalAcked.Add(1)
					if !onVictim {
						healthyAcked.Add(1)
					}
				}
			}
		}(w)
	}

	// ---- the kill: blackhole the victim once the soak is warm ----
	killDone := make(chan struct{})
	var duringKill int64
	go func() {
		defer close(killDone)
		for totalAcked.Load() < int64(cfg.KillAfter) {
			time.Sleep(5 * time.Millisecond)
		}
		before := healthyAcked.Load()
		lns[victim].SetDrop(true)
		lns[victim].CutAll()
		logf("soak: shard %d blackholed at %d total acks", victim, totalAcked.Load())
		time.Sleep(cfg.KillFor)
		duringKill = healthyAcked.Load() - before
		lns[victim].SetDrop(false)
		logf("soak: shard %d restored; %d healthy-shard acks during the outage", victim, duringKill)
	}()
	wg.Wait()
	<-killDone

	res.Attempted = cfg.Objects * cfg.Ops
	res.Acked = int(totalAcked.Load())
	res.AckedDuringKill = int(duringKill)
	for i := range lns {
		res.Fault = append(res.Fault, lns[i].Stats())
	}
	if res.AckedDuringKill == 0 {
		return res, fmt.Errorf("soak: healthy shards acknowledged nothing while shard %d was dark — outage was total", victim)
	}

	// ---- teardown the wire: the oracle runs against the drives ----
	for i, rm := range remotes {
		_ = rm.Close()
		remotes[i] = nil
	}
	for i := range srvs {
		_ = srvs[i].Close()
		<-serveDone[i]
		srvs[i] = nil
	}

	// ---- per-object exactly-once oracle against the owning drive ----
	verify := func(drv []*core.Drive) (int, error) {
		present := 0
		for w, obj := range objs {
			n, err := s4rpc.VerifyMarkers(drv[router.ShardOf(obj)], cred, obj, acked[w])
			if err != nil {
				return 0, fmt.Errorf("object %d: %w", obj, err)
			}
			present += n
		}
		for i, d := range drv {
			if err := d.CheckInvariants(); err != nil {
				return 0, fmt.Errorf("shard %d invariants: %w", i, err)
			}
		}
		return present, nil
	}
	present, err := verify(drvs)
	if err != nil {
		return res, err
	}
	res.Present = present

	// ---- recovery finale: every shard must replay to the same truth ----
	for i := range drvs {
		if err := drvs[i].Sync(types.AdminCred()); err != nil {
			return res, fmt.Errorf("shard %d sync: %w", i, err)
		}
		if err := drvs[i].Close(); err != nil {
			drvs[i] = nil
			return res, fmt.Errorf("shard %d close: %w", i, err)
		}
		drvs[i] = nil
		reopened, err := core.Open(devs[i], opts)
		if err != nil {
			return res, fmt.Errorf("shard %d recovery open: %w", i, err)
		}
		drvs[i] = reopened
	}
	if _, err := verify(drvs); err != nil {
		return res, fmt.Errorf("after recovery replay: %w", err)
	}
	logf("soak: %d attempted, %d acked, %d present, %d healthy acks during kill of shard %d",
		res.Attempted, res.Acked, res.Present, res.AckedDuringKill, res.Victim)
	return res, nil
}
