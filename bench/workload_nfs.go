package main

import (
	"bytes"
	"fmt"
	"time"

	"s4/internal/core"
	"s4/internal/fsys"
	"s4/internal/nfsv2"
	"s4/internal/s4fs"
	"s4/internal/types"
)

// nfs_postmark: nfsv2.Client -> loopback UDP -> nfsv2.Server -> s4fs.FS
// -> core.Drive, the fused s4nfsd of OSDI '00 Fig. 1b. No s4rpc code runs.

type nfsStack struct {
	*env
	spec    nfsSpec
	fs      *fsWrap
	be      *fsBackend
	fsOpts  s4fs.Options
	srv     *nfsv2.Server
	served  chan error
	clients []*nfsv2.Client
	gens    []*pmGen
	dirs    [][]fsys.Handle       // [client][directory]
	files   []map[int]fsys.Handle // [client] file id -> handle
}

func dirName(c, d int) string { return fmt.Sprintf("c%dd%02d", c, d) }
func fileName(id int) string  { return fmt.Sprintf("f%07d", id) }

func buildNFS(cfg config, tr *tracer, spec nfsSpec) (*nfsStack, error) {
	spec.files = max(4, int(float64(spec.files)*cfg.scale))
	e, err := newEnv(cfg, tr, spec.window, spec.cleanEvery)
	if err != nil {
		return nil, err
	}
	st := &nfsStack{env: e, spec: spec, served: make(chan error, 1)}
	// As s4nfsd: one drive credential, a Sync after every mutation.
	st.fsOpts = s4fs.Options{Cred: types.Cred{User: 0, Client: 1}, Partition: "root", SyncEachOp: true}
	st.be = &fsBackend{be: &s4fs.LocalBackend{Drv: e.drv, Cred: st.fsOpts.Cred}, t: tr}
	fs, err := s4fs.MkfsBackend(st.be, st.fsOpts)
	if err != nil {
		return nil, fmt.Errorf("mkfs: %w", err)
	}
	st.fs = &fsWrap{FileSys: fs, t: tr}
	st.srv = nfsv2.NewServer(st.fs, "/s4")
	go func() { st.served <- st.srv.ListenAndServe("127.0.0.1:0") }()
	for i := 0; st.srv.Addr() == ""; i++ {
		select {
		case err := <-st.served:
			return nil, fmt.Errorf("nfs listen: %v", err)
		case <-time.After(time.Millisecond):
		}
		if i > 5000 {
			return nil, fmt.Errorf("nfs server did not bind")
		}
	}
	e.unblock = st.closeClients

	buf := make([]byte, nfsMaxData)
	for c := 0; c < cfg.clients; c++ {
		cl, err := nfsv2.DialClient(st.srv.Addr(), uint32(100+c), 100, fmt.Sprintf("bench%d", c))
		if err != nil {
			return nil, fmt.Errorf("dial client %d: %w", c, err)
		}
		st.clients = append(st.clients, cl)
		root, err := cl.Mount("/s4")
		if err != nil {
			return nil, fmt.Errorf("mount: %w", err)
		}
		g := newPostmarkGen(cfg.seed, c, spec)
		st.gens = append(st.gens, g)
		st.dirs = append(st.dirs, make([]fsys.Handle, spec.dirs))
		st.files = append(st.files, make(map[int]fsys.Handle))
		for d := range st.dirs[c] {
			e.tick()
			if st.dirs[c][d], err = cl.Mkdir(root, dirName(c, d), 0755); err != nil {
				return nil, fmt.Errorf("populate mkdir: %w", err)
			}
		}
		for _, f := range g.files {
			for _, o := range createCalls(f) {
				e.tick()
				if err := st.call(c, o, buf, nil); err != nil {
					return nil, fmt.Errorf("populate %s: %w", kindNames[o.Kind], err)
				}
			}
		}
	}
	return st, nil
}

func (st *nfsStack) closeClients() {
	for _, cl := range st.clients {
		_ = cl.Close()
	}
}

func (st *nfsStack) shutdown() {
	st.closeClients()
	_ = st.srv.Close()
	<-st.served
}

// handleOf is the file handle an NFS call names first, which is how the
// server-side wrappers find the client.op that caused them.
func (st *nfsStack) handleOf(c int, o op) fsys.Handle {
	if o.Kind == kCreate || o.Kind == kRemove {
		return st.dirs[c][o.Blk]
	}
	return st.files[c][o.Obj]
}

// call performs one NFS call. A READ leaves its bytes in *got.
func (st *nfsStack) call(c int, o op, buf []byte, got *[]byte) error {
	cl := st.clients[c]
	switch o.Kind {
	case kCreate:
		h, err := cl.Create(st.dirs[c][o.Blk], fileName(o.Obj), 0644)
		if err == nil {
			st.files[c][o.Obj] = h
		}
		return err
	case kRemove:
		delete(st.files[c], o.Obj)
		return cl.Remove(st.dirs[c][o.Blk], fileName(o.Obj))
	case kWrite:
		fileBytes(buf[:o.Len], st.cfg.seed, c, o.Obj, o.Off)
		return cl.Write(st.files[c][o.Obj], uint32(o.Off), buf[:o.Len])
	default:
		data, err := cl.Read(st.files[c][o.Obj], uint32(o.Off), uint32(o.Len))
		*got = data
		return err
	}
}

// client is one closed-loop PostMark client. It stops only between
// transactions, so the model never holds a half-written file.
func (st *nfsStack) client(c int, rec *recorder, stop func() bool) {
	g := st.gens[c]
	buf, want := make([]byte, nfsMaxData), make([]byte, nfsMaxData)
	var got []byte
	for len(g.queue) > 0 || !stop() {
		o := g.next()
		h := st.handleOf(c, o)
		err := st.timed(c, rec, o.Kind, uint64(h), func() error { return st.call(c, o, buf, &got) })
		if err != nil {
			continue
		}
		switch o.Kind {
		case kWrite:
			rec.userBytes += int64(o.Len)
		case kRead:
			fileBytes(want[:o.Len], st.cfg.seed, c, o.Obj, o.Off)
			if !bytes.Equal(got, want[:o.Len]) {
				st.fail(fmt.Errorf("read of file %d at %d: %d bytes differ from the %d written", o.Obj, o.Off, len(got), o.Len))
			}
		}
	}
}

// verify runs the post-run checks. Every mutation was followed by a
// Sync, so after abandoning the drive and reopening the device every
// file of the model must be there, whole, and every deleted file gone.
func (st *nfsStack) verify() {
	st.check(st.drv.CheckInvariants())
	drv, err := core.Open(st.dev, st.opts)
	st.check(err)
	if err != nil {
		return
	}
	fs, err := s4fs.Mount(drv, st.fsOpts)
	st.check(err)
	if err != nil {
		return
	}
	for c, g := range st.gens {
		for _, f := range g.files {
			h, _, err := fs.Lookup(st.dirs[c][f.dir], fileName(f.id))
			var data []byte
			if err == nil {
				data, err = fs.Read(h, 0, f.size+1)
			}
			if err == nil {
				want := make([]byte, f.size)
				fileBytes(want, st.cfg.seed, c, f.id, 0)
				if !bytes.Equal(data, want) {
					err = fmt.Errorf("%d bytes differ from the %d written", len(data), f.size)
				}
			}
			if err != nil {
				err = fmt.Errorf("reopen: client %d file %d: %w", c, f.id, err)
			}
			st.check(err)
		}
		for _, f := range g.gone {
			if _, _, err := fs.Lookup(st.dirs[c][f.dir], fileName(f.id)); err == nil {
				st.check(fmt.Errorf("reopen: client %d file %d was removed but is there", c, f.id))
			} else {
				st.check(nil)
			}
		}
	}
}

func runNFS(cfg config, spec nfsSpec) (*outcome, error) {
	tr := newTracer(cfg.trace)
	st, setupS, err := setups(cfg.setups, func() (*nfsStack, error) { return buildNFS(cfg, tr, spec) },
		func(st *nfsStack) { st.shutdown() })
	if err != nil {
		return nil, err
	}
	st.startCleaner()
	rampOps := int64(rampWindows*float64(spec.window/opTick)*cfg.scale) / int64(cfg.clients)
	setupS += st.run(0, max(rampOps, 1), false, st.client).quietSeconds()

	beCalls0, syncs0 := st.be.calls.Load(), st.be.syncs.Load()
	p := st.run(cfg.seconds, cfg.ops, cfg.trace, st.client)
	beCalls, syncs := st.be.calls.Load()-beCalls0, st.be.syncs.Load()-syncs0
	st.stopCleaner()
	st.shutdown()
	st.verify()

	out := requestPathOutcome(st.env, p, setupS, spec.window)
	ops := float64(p.ops())
	m := out.metrics
	m["s4fs.backend_calls_per_op"] = ratio(float64(beCalls), ops)
	m["s4fs.syncs_per_op"] = ratio(float64(syncs), ops)
	m["core.commit_batches_per_sync"] = ratio(float64(p.st1.CommitBatches-p.st0.CommitBatches), float64(syncs))
	if out.spans != nil {
		sp := out.spans
		client := sp.total[spanClient]
		m["s4fs.op_us"] = median(all(sp.dur, spanFS))
		m["s4fs.self_share"] = ratio(sp.selfSum[spanFS], client)
		m["nfsv2.self_us"] = median(all(sp.self, spanClient))
		m["nfsv2.self_share"] = ratio(sp.selfSum[spanClient], client)
		m["core.self_share"] = ratio(sp.selfSum[spanFSBackend], client)
		for _, k := range []opKind{kRead, kWrite, kSync} {
			m["core."+kindNames[k]+"_us"] = median(sp.dur[spanKey{spanFSBackend, k}])
		}
	}
	return out, nil
}
