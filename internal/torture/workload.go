package torture

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"s4/internal/core"
	"s4/internal/disk"
	"s4/internal/types"
	"s4/internal/vclock"
)

// snapshot is the oracle's record of one acknowledged mutation: the
// externally observable state of the object at that timestamp.
type snapshot struct {
	at      types.Timestamp
	deleted bool
	data    []byte
	attr    []byte
}

// modelObject mirrors one drive object. snaps is append-only and
// time-ordered; every acked mutating op adds exactly one.
type modelObject struct {
	id    types.ObjectID
	snaps []snapshot
}

func (m *modelObject) cur() *snapshot { return &m.snaps[len(m.snaps)-1] }

// auditExpect is one entry of the oracle's op sequence; the recovered
// audit log must be a prefix of it.
type auditExpect struct {
	op   types.Op
	obj  types.ObjectID
	user types.UserID
	ok   bool
	at   types.Timestamp // op time; bounds what window-aging may trim
}

// syncMark records a durability point: when Sync (or Checkpoint)
// returned, nWrites device writes had been acknowledged, and every op
// with timestamp <= at was guaranteed durable. Audit records are
// batched a block at a time (§5.1.4) and are only guaranteed durable
// by checkpoints, so cp distinguishes those.
type syncMark struct {
	nWrites int
	at      types.Timestamp
	cp      bool
}

// run is the finished workload: the recording plus the oracle needed to
// judge any crash image of it.
type run struct {
	cfg     Config
	rec     *disk.FaultDisk
	opts    core.Options
	objects []*modelObject
	audits  []auditExpect
	syncs   []syncMark
	endTime types.Timestamp
	// relaxed is set for skip-mode retention policies: versions the
	// policy declined to retain read back as typed ErrNoVersion, so the
	// snapshot oracle accepts exact-or-ErrNoVersion (never garbage).
	relaxed bool
	// deltaBlocks / skippedVersions are the workload drive's
	// DeltaBlocksWritten and PolicySkippedVersions counters at the end
	// of the run, so policy sweeps can assert the paths they mean to
	// cover actually fired.
	deltaBlocks     int64
	skippedVersions int64
	// cleaned sums the CleanStats of the workload's cleaner passes.
	cleaned core.CleanStats
	// landmarkedRelocs: see Result.LandmarkedRelocs.
	landmarkedRelocs int
	// spaceRetries: see Result.SpaceRetries.
	spaceRetries int
}

func everyoneACL() []types.ACLEntry {
	return []types.ACLEntry{{User: types.EveryoneID, Perm: types.PermAll}}
}

// runWorkload formats a drive on a fresh recording device and executes
// cfg.Ops seeded random operations over it, maintaining the oracle as
// it goes. Any divergence between drive and oracle during the workload
// itself is an error (the harness, not the drive, is then broken).
func runWorkload(cfg Config) (*run, error) {
	clk := vclock.NewVirtual()
	rec := disk.NewFault(cfg.DiskBytes)
	opts := core.Options{
		Clock:                clk,
		SegBlocks:            cfg.SegBlocks,
		CheckpointBlocks:     cfg.CheckpointBlocks,
		Window:               cfg.Window,
		BlockCacheBytes:      1 << 20,
		ObjectCacheCount:     2*cfg.MaxObjects + 16,
		CheckpointEvery:      cfg.CheckpointEvery,
		UnsafeImmediateReuse: cfg.UnsafeImmediateReuse,
	}
	w := &run{cfg: cfg, rec: rec, opts: opts}
	if cfg.EvictHard {
		// The workload drive only. An Open ends by evicting down to its
		// budget, which checkpoints pruned objects: recovered with two
		// inodes, an image's state would depend on which recovery path
		// happened to load what, and the equivalence checks compare that.
		opts.ObjectCacheCount = 2
	}
	drv, err := core.Format(rec, opts)
	if err != nil {
		return nil, fmt.Errorf("torture: format: %w", err)
	}
	if cfg.Policy != (types.Policy{}) {
		// The retention policy is part of the mkfs baseline (set before
		// recording starts), so every crash image recovers under it and
		// both recovery paths must classify history identically.
		if err := drv.SetPolicy(types.AdminCred(), 0, cfg.Policy); err != nil {
			return nil, fmt.Errorf("torture: set policy: %w", err)
		}
		w.audits = append(w.audits, auditExpect{
			op: types.OpSetPolicy, obj: 0, user: types.AdminUser, ok: true, at: drv.Now(),
		})
		w.relaxed = cfg.Policy.Mode != types.ModeEveryVersion
	}
	// Crash points cover the workload, not mkfs: everything from here
	// on is journaled.
	rec.StartRecording()
	rng := rand.New(rand.NewSource(cfg.Seed))
	creds := make([]types.Cred, cfg.Clients)
	for i := range creds {
		creds[i] = types.Cred{User: types.UserID(100 + i), Client: types.ClientID(1 + i)}
	}
	tick := func() { clk.Advance(time.Millisecond) }
	audit := func(op types.Op, obj types.ObjectID, cred types.Cred, ok bool) {
		w.audits = append(w.audits, auditExpect{op: op, obj: obj, user: cred.User, ok: ok, at: drv.Now()})
	}
	live := func() []*modelObject {
		var out []*modelObject
		for _, m := range w.objects {
			if !m.cur().deleted {
				out = append(out, m)
			}
		}
		return out
	}

	// clean is one cleaner pass of the workload drive.
	clean := func() error {
		var before map[string]*landmarkState
		if cfg.StaggerAt > 0 {
			before = landmarkStates(drv.StateDigest())
		}
		cs, err := drv.CleanOnce()
		if err != nil {
			return err
		}
		if cs.BlocksCopied > 0 && before != nil {
			for id, after := range landmarkStates(drv.StateDigest()) {
				if b := before[id]; b != nil && after.floor != b.floor && b.indexed > 0 {
					w.landmarkedRelocs++
				}
			}
		}
		w.cleaned.EntriesAged += cs.EntriesAged
		w.cleaned.BlocksCopied += cs.BlocksCopied
		w.cleaned.ObjectsReaped += cs.ObjectsReaped
		tick()
		return nil
	}
	// mutate runs one mutating op. ErrNoSpace is the drive holding back
	// the cleaner's reserve and asking for a pass (core's throttle), so
	// the harness does what a client does: lets the cleaner run and
	// retries, once. The refusal is audited like any failed op. On a
	// device of a few dozen segments the barrier that hands emptied
	// segments back waits until the drive is down to its reserve, so which
	// op meets the refusal turns on a block more or less written before
	// it; the passes the workload schedules itself are drawn from rng.
	mutate := func(op types.Op, obj types.ObjectID, cred types.Cred, f func() error) error {
		err := f()
		if errors.Is(err, types.ErrNoSpace) {
			audit(op, obj, cred, false)
			w.spaceRetries++
			if err = clean(); err == nil {
				err = f()
			}
		}
		return err
	}

	for i := 0; i < cfg.Ops; i++ {
		cred := creds[rng.Intn(len(creds))]
		objs := live()
		op := rng.Intn(100)
		switch {
		case (op < 10 && len(w.objects) < cfg.MaxObjects) || len(objs) == 0:
			attr := randBytes(rng, 1+rng.Intn(48))
			var id types.ObjectID
			err := mutate(types.OpCreate, 0, cred, func() (err error) {
				id, err = drv.Create(cred, everyoneACL(), attr)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("torture: op %d create: %w", i, err)
			}
			audit(types.OpCreate, id, cred, true)
			w.objects = append(w.objects, &modelObject{id: id, snaps: []snapshot{{
				at: drv.Now(), attr: attr,
			}}})

		case op < 50: // overwrite somewhere, possibly past EOF (a hole)
			m := objs[rng.Intn(len(objs))]
			off := rng.Intn(len(m.cur().data) + types.BlockSize)
			n := 1 + rng.Intn(cfg.MaxWriteBlocks*types.BlockSize)
			data := randBytes(rng, n)
			if cfg.Policy.DeltaEnabled && rng.Intn(2) == 0 {
				// Small-diff overwrite: mostly re-write the current
				// bytes with a few mutations. Random payloads encode to
				// full-size deltas that conversion declines to pack, so
				// without these the delta path would go unexercised.
				cur := m.cur().data
				for j := 0; j < n && off+j < len(cur); j++ {
					data[j] = cur[off+j]
				}
				for t := 0; t < 4; t++ {
					data[rng.Intn(n)] ^= byte(1 + rng.Intn(255))
				}
			}
			if err := mutate(types.OpWrite, m.id, cred, func() error { return drv.Write(cred, m.id, uint64(off), data) }); err != nil {
				return nil, fmt.Errorf("torture: op %d write: %w", i, err)
			}
			audit(types.OpWrite, m.id, cred, true)
			next := m.cur().clone(drv.Now())
			for len(next.data) < off+n {
				next.data = append(next.data, 0)
			}
			copy(next.data[off:], data)
			m.snaps = append(m.snaps, next)

		case op < 62: // append
			m := objs[rng.Intn(len(objs))]
			data := randBytes(rng, 1+rng.Intn(types.BlockSize))
			if err := mutate(types.OpAppend, m.id, cred, func() error { _, err := drv.Append(cred, m.id, data); return err }); err != nil {
				return nil, fmt.Errorf("torture: op %d append: %w", i, err)
			}
			audit(types.OpAppend, m.id, cred, true)
			next := m.cur().clone(drv.Now())
			next.data = append(next.data, data...)
			m.snaps = append(m.snaps, next)

		case op < 72: // truncate, shrink or grow
			m := objs[rng.Intn(len(objs))]
			var size int
			if cur := len(m.cur().data); cur > 0 && rng.Intn(2) == 0 {
				size = rng.Intn(cur)
			} else {
				size = len(m.cur().data) + rng.Intn(types.BlockSize)
			}
			if err := mutate(types.OpTruncate, m.id, cred, func() error { return drv.Truncate(cred, m.id, uint64(size)) }); err != nil {
				return nil, fmt.Errorf("torture: op %d truncate: %w", i, err)
			}
			audit(types.OpTruncate, m.id, cred, true)
			next := m.cur().clone(drv.Now())
			for len(next.data) < size {
				next.data = append(next.data, 0)
			}
			next.data = next.data[:size]
			m.snaps = append(m.snaps, next)

		case op < 78: // setattr
			m := objs[rng.Intn(len(objs))]
			attr := randBytes(rng, rng.Intn(64))
			if err := mutate(types.OpSetAttr, m.id, cred, func() error { return drv.SetAttr(cred, m.id, attr) }); err != nil {
				return nil, fmt.Errorf("torture: op %d setattr: %w", i, err)
			}
			audit(types.OpSetAttr, m.id, cred, true)
			next := m.cur().clone(drv.Now())
			next.attr = attr
			m.snaps = append(m.snaps, next)

		case op < 81: // grant a random extra ACL slot (slot 0 stays Everyone)
			m := objs[rng.Intn(len(objs))]
			idx := 1 + rng.Intn(3)
			entry := types.ACLEntry{User: creds[rng.Intn(len(creds))].User, Perm: types.PermRead}
			if err := mutate(types.OpSetACL, m.id, cred, func() error { return drv.SetACL(cred, m.id, idx, entry) }); err != nil {
				return nil, fmt.Errorf("torture: op %d setacl: %w", i, err)
			}
			audit(types.OpSetACL, m.id, cred, true)
			m.snaps = append(m.snaps, m.cur().clone(drv.Now()))

		case op < 84 && len(objs) > 2: // delete
			m := objs[rng.Intn(len(objs))]
			if err := mutate(types.OpDelete, m.id, cred, func() error { return drv.Delete(cred, m.id) }); err != nil {
				return nil, fmt.Errorf("torture: op %d delete: %w", i, err)
			}
			audit(types.OpDelete, m.id, cred, true)
			next := m.cur().clone(drv.Now())
			next.deleted = true
			next.data, next.attr = nil, nil
			m.snaps = append(m.snaps, next)

		default: // read, current or historical, verified inline
			m := w.objects[rng.Intn(len(w.objects))]
			sn := &m.snaps[rng.Intn(len(m.snaps))]
			at := sn.at
			winCut := drv.Now() - types.Timestamp(cfg.Window)
			if rng.Intn(3) == 0 || sn.at <= winCut || w.relaxed {
				// Versions older than the detection window may have
				// been legitimately reclaimed; only current state is
				// guaranteed then. Likewise under skip-mode retention,
				// where a historical version may read as ErrNoVersion:
				// the inline oracle stays strict by reading current only
				// (crash verification covers history with the relaxed
				// snapshot check).
				sn = m.cur()
				at = types.TimeNowest
			}
			got, err := drv.Read(cred, m.id, 0, uint64(len(sn.data))+1, at)
			if sn.deleted {
				if !errors.Is(err, types.ErrNoObject) {
					return nil, fmt.Errorf("torture: op %d read deleted %v: %v", i, m.id, err)
				}
				audit(types.OpRead, m.id, cred, false)
			} else {
				if err != nil || !bytes.Equal(got, sn.data) {
					return nil, fmt.Errorf("torture: op %d read %v at %v diverged from oracle: %v", i, m.id, at, err)
				}
				audit(types.OpRead, m.id, cred, true)
			}
		}
		tick()

		if rng.Intn(cfg.SyncEveryN) == 0 {
			if err := drv.Sync(cred); err != nil {
				return nil, fmt.Errorf("torture: op %d sync: %w", i, err)
			}
			audit(types.OpSync, 0, cred, true)
			w.syncs = append(w.syncs, syncMark{nWrites: rec.Writes(), at: drv.Now()})
			tick()
		}
		if rng.Intn(cfg.CheckpointEveryN) == 0 ||
			(cfg.IndexFlushEvery > 0 && (i+1)%cfg.IndexFlushEvery == 0) {
			if err := drv.Checkpoint(); err != nil {
				return nil, fmt.Errorf("torture: op %d checkpoint: %w", i, err)
			}
			// Checkpoint makes everything durable too; not audited.
			w.syncs = append(w.syncs, syncMark{nWrites: rec.Writes(), at: drv.Now(), cp: true})
			tick()
		}
		if i+1 == cfg.StaggerAt {
			clk.Advance(2 * cfg.Window)
		}
		// After the jump the cleaner rests for a while, so that its first
		// pass finds the objects written since with landmarks in-window.
		rest := cfg.StaggerAt > 0 && i >= cfg.StaggerAt && i < cfg.StaggerAt+cfg.StaggerAt/3
		if rng.Intn(cfg.CleanEveryN) == 0 && !rest {
			if err := clean(); err != nil {
				return nil, fmt.Errorf("torture: op %d clean: %w", i, err)
			}
		}
	}
	w.endTime = drv.Now()
	st := drv.DriveStats()
	w.deltaBlocks = st.DeltaBlocksWritten
	w.skippedVersions = st.PolicySkippedVersions
	return w, nil
}

// landmarkState is what a StateDigest says about one object's
// landmarks: its landmark floor and how many it has indexed.
type landmarkState struct {
	floor   string
	indexed int
}

// landmarkStates reads every object's landmarkState out of a digest,
// keyed by the object's id as printed.
func landmarkStates(digest string) map[string]*landmarkState {
	out := make(map[string]*landmarkState)
	var cur *landmarkState
	for _, line := range strings.Split(digest, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 2 && f[0] == "obj":
			cur = &landmarkState{}
			out[f[1]] = cur
			for _, kv := range f[2:] {
				if v, ok := strings.CutPrefix(kv, "lmFloor="); ok {
					cur.floor = v
				}
			}
		case len(f) > 0 && f[0] == "landmark" && cur != nil:
			cur.indexed++
		}
	}
	return out
}

func (s *snapshot) clone(at types.Timestamp) snapshot {
	return snapshot{
		at:      at,
		deleted: s.deleted,
		data:    append([]byte(nil), s.data...),
		attr:    append([]byte(nil), s.attr...),
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// isCheckpointSlotWrite reports whether rec is the single vectored
// write that persists one checkpoint slot (object map + segment index
// blob). The two slots sit at blocks 1 and 1+CheckpointBlocks, and the
// blob write always starts at the slot base.
func (w *run) isCheckpointSlotWrite(rec disk.WriteRecord) bool {
	spb := int64(types.BlockSize / disk.SectorSize)
	cp := int64(w.cfg.CheckpointBlocks)
	return rec.Sector == 1*spb || rec.Sector == (1+cp)*spb
}

// lastMark returns the newest durability point whose writes all fit in
// a crash image of k writes, or nil if nothing was synced by then.
func (w *run) lastMark(k int) *syncMark {
	for i := len(w.syncs) - 1; i >= 0; i-- {
		if w.syncs[i].nWrites <= k {
			return &w.syncs[i]
		}
	}
	return nil
}

// lastCpMark is lastMark restricted to checkpoints — the durability
// bound for audit records, which sync in blocks, not per client Sync.
func (w *run) lastCpMark(k int) *syncMark {
	for i := len(w.syncs) - 1; i >= 0; i-- {
		if w.syncs[i].cp && w.syncs[i].nWrites <= k {
			return &w.syncs[i]
		}
	}
	return nil
}
