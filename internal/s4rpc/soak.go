package s4rpc

import (
	"fmt"
	"net"
	"time"

	"s4/internal/core"
	"s4/internal/disk"
	"s4/internal/netfault"
	"s4/internal/types"
	"s4/internal/vclock"
)

// SoakConfig parameterizes one network-fault soak run (RunFaultSoak).
type SoakConfig struct {
	// Seed drives the deterministic fault schedule.
	Seed int64
	// Ops is the number of marker appends the client attempts.
	Ops int
	// Workers bounds the server's dispatch pool (0 = default).
	Workers int
	// IOTimeout is the server's per-frame deadline (0 = none).
	IOTimeout time.Duration
	// Fault is the injection schedule for the server's listener. The
	// Seed field here is overridden by SoakConfig.Seed.
	Fault netfault.Config
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// SoakResult reports what one soak run did and survived.
type SoakResult struct {
	Attempted int // marker appends issued
	Acked     int // appends acknowledged to the client
	Present   int // markers found in the object afterward
	Client    Stats
	Fault     netfault.Stats
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

// RunFaultSoak is the end-to-end exactly-once proof. It formats a
// fresh in-memory drive, serves it through a fault-injecting listener
// (cuts mid-frame, silent drops, latency spikes), and has one client
// append ordered markers while its retry machinery fights the faults.
// It then verifies the ground truth against an oracle:
//
//   - every acknowledged append appears in the object exactly once;
//   - no marker — acked or not — appears more than once, despite every
//     retransmission (a lost reply may leave an unacked marker behind:
//     at-most-once is the strongest claim possible for unacked ops);
//   - markers appear in issue order (the session serializes);
//   - the audit log records exactly one successful append per present
//     marker — duplicate suppression left no phantom evidence (§3.3);
//   - the version history has exactly one version per present marker;
//   - core.CheckInvariants passes, and after a crash-equivalent close
//     and recovery replay the object still reads back identically.
//
// Any violation returns a non-nil error describing it.
func RunFaultSoak(cfg SoakConfig) (SoakResult, error) {
	var res SoakResult
	if cfg.Ops <= 0 {
		cfg.Ops = 200
	}
	cfg.Fault.Seed = cfg.Seed
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	opts := core.Options{
		Clock: vclock.Wall{}, SegBlocks: 16, CheckpointBlocks: 16,
		Window: time.Hour, SurfaceThrottle: true,
	}
	dev := disk.New(disk.SmallDisk(64<<20), nil)
	drv, err := core.Format(dev, opts)
	if err != nil {
		return res, err
	}
	defer func() {
		if drv != nil {
			_ = drv.Close()
		}
	}()

	keys := NewKeyring([]byte("soak-admin-key"))
	clientKey := []byte("soak-client-key")
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
	fl := netfault.Wrap(ln, cfg.Fault)
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = srv.Serve(fl) }()
	defer func() { _ = srv.Close(); <-serveDone }()

	// The client's one session rides across every reconnect; short
	// timeouts keep the soak brisk, many attempts let it outlast any
	// streak of cut or blackholed connections.
	ccfg := Config{
		Addr: fl.Addr().String(), Client: 1, User: 100, Key: clientKey,
		DialTimeout: 250 * time.Millisecond, CallTimeout: 300 * time.Millisecond,
		MaxAttempts: 60, BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond,
	}
	var c *Client
	for attempt := 0; ; attempt++ {
		c, err = DialConfig(ccfg)
		if err == nil {
			break
		}
		if attempt > 100 {
			return res, fmt.Errorf("soak: cannot establish first session: %w", err)
		}
	}
	defer c.Close()

	cred := types.Cred{User: 100, Client: 1}
	acl := []types.ACLEntry{{User: 100, Perm: types.PermRead | types.PermWrite}}
	obj, err := c.Create(acl, nil)
	if err != nil {
		return res, fmt.Errorf("soak: create: %w", err)
	}

	acked := make([]bool, cfg.Ops)
	for i := 0; i < cfg.Ops; i++ {
		res.Attempted++
		if _, err := c.Append(obj, []byte(SoakMarker(i))); err == nil {
			acked[i] = true
			res.Acked++
		}
		if i%50 == 49 {
			st := c.Stats()
			logf("soak: %d/%d ops, %d acked, %d retries, %d reconnects",
				i+1, cfg.Ops, res.Acked, st.Retries, st.Reconnects)
		}
	}
	res.Client = c.Stats()
	res.Fault = fl.Stats()
	_ = c.Close()

	// ---- oracle: verify against the drive directly, under the faults'
	// reach no longer (the wire is out of the loop from here). ----
	verify := func(d *core.Drive) error {
		present, err := VerifyMarkers(d, cred, obj, acked)
		if err != nil {
			return err
		}
		res.Present = present
		return d.CheckInvariants()
	}
	if err := verify(drv); err != nil {
		return res, err
	}

	// Recovery finale: force durability, tear the drive down, and
	// replay — the exactly-once story must survive a restart.
	if err := drv.Sync(types.AdminCred()); err != nil {
		return res, fmt.Errorf("soak sync: %w", err)
	}
	if err := drv.Close(); err != nil {
		drv = nil
		return res, fmt.Errorf("soak close: %w", err)
	}
	drv = nil
	reopened, err := core.Open(dev, opts)
	if err != nil {
		return res, fmt.Errorf("soak recovery open: %w", err)
	}
	drv = reopened
	if err := verify(reopened); err != nil {
		return res, fmt.Errorf("after recovery replay: %w", err)
	}
	logf("soak: %d attempted, %d acked, %d present, %d retries, %d reconnects, faults %+v",
		res.Attempted, res.Acked, res.Present, res.Client.Retries, res.Client.Reconnects, res.Fault)
	return res, nil
}
