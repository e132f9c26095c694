package main

import (
	"bytes"
	"fmt"
	"net"
	"sort"
	"time"

	"s4/internal/core"
	"s4/internal/s4rpc"
	"s4/internal/types"
	"s4/internal/vclock"
)

// The s4rpc workloads: s4rpc.Client -> loopback TCP -> s4rpc.Server ->
// core.Drive -> disk.Disk, all in this process but across real sockets.

type rpcStack struct {
	*env
	spec    rpcSpec
	ln      *countListener
	srv     *s4rpc.Server
	served  chan error
	admin   *s4rpc.Client
	clients []*s4rpc.Client
	gens    []*rpcGen
	// handshake is the bytes one connection exchanges before its first
	// request.
	handshake float64

	ids [][]types.ObjectID // [client][object]
	// The model. A unit is a block (rpc_hot_mix) or an object's whole span
	// (rpc_churn_history); units are indexed obj*unitsPerObj+blk.
	ver   [][]uint64 // latest acknowledged version of each unit
	acked [][]uint64 // version each unit had at the last Sync ack
	dirty [][]int    // units written since the last Sync
	// rpc_churn_history: ats[c][obj][i] is a time at which version
	// base[c][obj]+i was current, for the versions still inside the window.
	ats  [][][]types.Timestamp
	base [][]uint64
	body [][][]byte // version-independent part of each object's span
}

func (st *rpcStack) unitsPerObj() int {
	if st.spec.spanWrite {
		return 1
	}
	return st.spec.blocks
}

func (st *rpcStack) unitBytes() int {
	if st.spec.spanWrite {
		return st.spec.blocks * blockSize
	}
	return blockSize
}

func clientKey(c int) []byte { return []byte(fmt.Sprintf("client-key-%d", c)) }

func clientCred(c int) types.Cred {
	return types.Cred{User: types.UserID(100 + c), Client: types.ClientID(c + 1)}
}

// buildRPC formats a drive, serves it as s4d does (workers = GOMAXPROCS,
// queue 4x, io-timeout 30 s), dials one connection per client and
// populates each client's own object set.
func buildRPC(cfg config, tr *tracer, spec rpcSpec) (*rpcStack, error) {
	spec.objects = max(1, int(float64(spec.objects)*cfg.scale))
	e, err := newEnv(cfg, tr, spec.window, spec.cleanEvery)
	if err != nil {
		return nil, err
	}
	st := &rpcStack{env: e, spec: spec, served: make(chan error, 1)}
	keys := s4rpc.NewKeyring([]byte("admin-key"))
	for c := 0; c < cfg.clients; c++ {
		keys.AddClient(types.ClientID(c+1), clientKey(c))
	}
	st.srv = s4rpc.NewServer(&rpcBackend{Backend: e.drv, t: tr}, keys)
	st.srv.SetIOTimeout(30 * time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.ln = &countListener{Listener: ln}
	go func() { st.served <- st.srv.Serve(st.ln) }()
	addr := ln.Addr().String()
	e.unblock = st.closeClients

	if st.admin, err = s4rpc.Dial(addr, 0, types.AdminUser, []byte("admin-key"), true); err != nil {
		return nil, fmt.Errorf("dial admin: %w", err)
	}
	if spec.delta {
		pol := types.Policy{Mode: types.ModeEveryVersion, DeltaEnabled: true}
		if err := st.admin.SetPolicy(0, pol); err != nil {
			return nil, fmt.Errorf("set policy: %w", err)
		}
	}
	wire0 := st.ln.in.Load() + st.ln.out.Load()
	for c := 0; c < cfg.clients; c++ {
		cl, err := s4rpc.Dial(addr, types.ClientID(c+1), types.UserID(100+c), clientKey(c), false)
		if err != nil {
			return nil, fmt.Errorf("dial client %d: %w", c, err)
		}
		st.clients = append(st.clients, cl)
		st.gens = append(st.gens, newRPCGen(cfg.seed, c, spec))
	}
	st.handshake = float64(st.ln.in.Load()+st.ln.out.Load()-wire0) / float64(cfg.clients)

	n := spec.objects
	units := n * st.unitsPerObj()
	objBytes := spec.blocks * blockSize
	buf := make([]byte, objBytes)
	for c, cl := range st.clients {
		st.ids = append(st.ids, make([]types.ObjectID, n))
		st.ver = append(st.ver, make([]uint64, units))
		st.acked = append(st.acked, make([]uint64, units))
		st.dirty = append(st.dirty, nil)
		st.ats = append(st.ats, make([][]types.Timestamp, n))
		st.base = append(st.base, make([]uint64, n))
		st.body = append(st.body, make([][]byte, n))
		acl := []types.ACLEntry{{User: types.UserID(100 + c), Perm: types.PermAll}}
		for o := 0; o < n; o++ {
			e.tick()
			id, err := cl.Create(acl, nil)
			if err != nil {
				return nil, fmt.Errorf("populate create: %w", err)
			}
			st.ids[c][o] = id
			if spec.spanWrite {
				st.body[c][o] = make([]byte, objBytes)
				churnBody(st.body[c][o], c, o)
				copy(buf, st.body[c][o])
				churnSpan(buf, cfg.seed, c, o, 0)
			} else {
				for b := 0; b < spec.blocks; b++ {
					hotBlock(buf[b*blockSize:], cfg.seed, c, o, b, 0)
				}
			}
			e.tick()
			if err := cl.Write(id, 0, buf); err != nil {
				return nil, fmt.Errorf("populate write: %w", err)
			}
			st.ats[c][o] = append(st.ats[c][o], vclock.TS(e.clk))
		}
		if err := cl.Sync(); err != nil {
			return nil, fmt.Errorf("populate sync: %w", err)
		}
	}
	return st, nil
}

func (st *rpcStack) closeClients() {
	for _, cl := range st.clients {
		_ = cl.Close()
	}
	if st.admin != nil {
		_ = st.admin.Close()
	}
}

// shutdown stops the server; the drive is left as it is.
func (st *rpcStack) shutdown() {
	st.closeClients()
	_ = st.srv.Close()
	<-st.served
}

// client is the closed loop of one client: one generator, one
// connection, one op in flight.
func (st *rpcStack) client(c int, rec *recorder, stop func() bool) {
	g, cl, seed := st.gens[c], st.clients[c], st.cfg.seed
	ub := st.unitBytes()
	buf, want := make([]byte, ub), make([]byte, ub)
	fill := func(dst []byte, o op, ver uint64) {
		if st.spec.spanWrite {
			copy(dst, st.body[c][o.Obj])
			churnSpan(dst, seed, c, o.Obj, ver)
		} else {
			hotBlock(dst, seed, c, o.Obj, o.Blk, ver)
		}
	}
	for !stop() {
		o := g.next()
		id := st.ids[c][o.Obj]
		unit := o.Obj*st.unitsPerObj() + o.Blk
		off := uint64(o.Blk * blockSize)
		switch o.Kind {
		case kRead, kHistRead:
			at, ver := types.TimeNowest, st.ver[c][unit]
			if o.Kind == kHistRead {
				at, ver = st.pickVersion(c, o)
			}
			var data []byte
			err := st.timed(c, rec, o.Kind, 0, func() (err error) {
				data, err = cl.Read(id, off, uint64(ub), at)
				return err
			})
			if err == nil {
				fill(want, o, ver)
				if !bytes.Equal(data, want) {
					st.fail(fmt.Errorf("%s of object %v unit %d: content is not version %d", kindNames[o.Kind], id, unit, ver))
				}
			}
		case kWrite:
			ver := st.ver[c][unit] + 1
			fill(buf, o, ver)
			if st.timed(c, rec, kWrite, 0, func() error { return cl.Write(id, off, buf) }) != nil {
				continue
			}
			rec.userBytes += int64(ub)
			st.ver[c][unit] = ver
			st.dirty[c] = append(st.dirty[c], unit)
			if st.spec.spanWrite {
				st.noteVersion(c, o.Obj)
			}
		case kSync:
			if st.timed(c, rec, kSync, 0, cl.Sync) != nil {
				continue
			}
			for _, u := range st.dirty[c] {
				st.acked[c][u] = st.ver[c][u]
			}
			st.dirty[c] = st.dirty[c][:0]
		}
	}
}

// noteVersion records when the version just acknowledged was current and
// forgets versions that have left the detection window.
func (st *rpcStack) noteVersion(c, obj int) {
	now := vclock.TS(st.clk)
	a := append(st.ats[c][obj], now)
	cut := now - types.Timestamp(st.spec.window)
	for len(a) > 1 && a[0] < cut {
		a = a[1:]
		st.base[c][obj]++
	}
	st.ats[c][obj] = a
}

// pickVersion maps a histread's U onto the versions of its object that
// are at most histReadReach of the window old. Those are guaranteed
// retained, so any error on the read — ErrNoVersion included — is a
// failure.
func (st *rpcStack) pickVersion(c int, o op) (types.Timestamp, uint64) {
	a := st.ats[c][o.Obj]
	cut := vclock.TS(st.clk) - types.Timestamp(histReadReach*float64(st.spec.window))
	lo := sort.Search(len(a), func(i int) bool { return a[i] >= cut })
	lo = min(lo, len(a)-1)
	i := lo + int(o.U*float64(len(a)-lo))
	return a[i], st.base[c][o.Obj] + uint64(i)
}

// verify runs the post-run checks: drive invariants, then the drive is
// abandoned without Close, reopened from the same device, and every unit
// must hold a version no older than its last Sync-acked one, intact.
func (st *rpcStack) verify() {
	st.check(st.drv.CheckInvariants())
	drv, err := core.Open(st.dev, st.opts)
	st.check(err)
	if err != nil {
		return
	}
	ub := st.unitBytes()
	want := make([]byte, ub)
	for c := range st.ids {
		for unit, latest := range st.ver[c] {
			o := op{Obj: unit / st.unitsPerObj(), Blk: unit % st.unitsPerObj()}
			data, err := drv.Read(clientCred(c), st.ids[c][o.Obj], uint64(o.Blk*blockSize), uint64(ub), types.TimeNowest)
			if err != nil || len(data) != ub {
				st.check(fmt.Errorf("reopen: read unit %d of client %d: %d bytes, %v", unit, c, len(data), err))
				continue
			}
			var got uint64
			if st.spec.spanWrite {
				got = churnVersion(data)
				copy(want, st.body[c][o.Obj])
				churnSpan(want, st.cfg.seed, c, o.Obj, got)
			} else {
				got = hotVersion(data)
				hotBlock(want, st.cfg.seed, c, o.Obj, o.Blk, got)
			}
			// A write whose reply was an error may still have landed.
			if got < st.acked[c][unit] || got > latest+1 || !bytes.Equal(data, want) {
				st.check(fmt.Errorf("reopen: client %d unit %d holds version %d, acked %d, latest %d", c, unit, got, st.acked[c][unit], latest))
				continue
			}
			st.check(nil)
		}
	}
}

func runRPC(cfg config, spec rpcSpec) (*outcome, error) {
	tr := newTracer(cfg.trace)
	st, setupS, err := setups(cfg.setups, func() (*rpcStack, error) { return buildRPC(cfg, tr, spec) },
		func(st *rpcStack) { st.shutdown() })
	if err != nil {
		return nil, err
	}
	st.startCleaner()
	rampOps := int64(rampWindows*float64(spec.window/opTick)*cfg.scale) / int64(cfg.clients)
	setupS += st.run(0, max(rampOps, 1), false, st.client).quietSeconds()

	in0, out0 := st.ln.in.Load(), st.ln.out.Load()
	p := st.run(cfg.seconds, cfg.ops, cfg.trace, st.client)
	wireIn, wireOut := st.ln.in.Load()-in0, st.ln.out.Load()-out0
	st.stopCleaner()
	var cs s4rpc.Stats
	for _, cl := range st.clients {
		s := cl.Stats()
		cs.Retries += s.Retries
		cs.Reconnects += s.Reconnects
		cs.BusyWaits += s.BusyWaits
		cs.ThrottleWaits += s.ThrottleWaits
	}
	st.shutdown()
	st.verify()

	out := requestPathOutcome(st.env, p, setupS, spec.window)
	ops := float64(p.ops())
	m := out.metrics
	m["s4rpc.req_bytes_per_op"] = ratio(float64(wireIn), ops)
	m["s4rpc.resp_bytes_per_op"] = ratio(float64(wireOut), ops)
	m["s4rpc.wire_bytes_per_op"] = ratio(float64(wireIn+wireOut), ops)
	m["s4rpc.handshake_bytes"] = st.handshake
	m["s4rpc.retries"] = float64(cs.Retries)
	m["s4rpc.reconnects"] = float64(cs.Reconnects)
	m["s4rpc.busy_waits"] = float64(cs.BusyWaits)
	m["s4rpc.throttle_waits"] = float64(cs.ThrottleWaits)
	if cs.ThrottleWaits > 0 {
		out.invalid = "clients were throttled: the run is mis-sized, not slow"
	}
	if out.spans != nil {
		sp := out.spans
		client := sp.total[spanClient]
		for _, k := range []opKind{kRead, kWrite, kSync, kHistRead} {
			m["s4rpc."+kindNames[k]+"_self_us"] = median(sp.self[spanKey{spanClient, k}])
			m["core."+kindNames[k]+"_us"] = median(sp.dur[spanKey{spanRPCBack, k}])
		}
		m["s4rpc.self_share"] = ratio(sp.selfSum[spanClient], client)
		m["core.self_share"] = ratio(sp.selfSum[spanRPCBack], client)
		if spec.delta {
			codecKernels(cfg.seed, m)
		}
	}
	return out, nil
}
