// Package torture is the deterministic crash-consistency torture
// harness for the S4 drive.
//
// A seeded random workload (multiple clients issuing create / write /
// append / truncate / setattr / setacl / delete / read, interleaved
// with Sync, Checkpoint, and CleanOnce) runs over a recording memory
// device (disk.Disk) while an oracle mirrors every acknowledged
// state change. The harness then materializes the crash image after
// *every* acknowledged device write — plus, optionally, a torn prefix
// of each multi-sector write — reopens the drive on it, and checks the
// recovery invariants the paper promises (§3.3, §4.2):
//
//  1. recovery — reopening any crash image never errors or panics;
//  2. durability — every version acknowledged by Sync (or Checkpoint)
//     before the crash reads back exactly at its timestamp;
//  3. history — all older oracle snapshots inside the detection window
//     reproduce exactly under time-based reads;
//  4. audit — the recovered audit log is a contiguous run of the
//     oracle's op sequence, in order, with matching
//     op/object/user/outcome; only records older than the detection
//     window may age off the front, only records newer than the last
//     durable checkpoint may fall off the back;
//  5. reuse — no durable structure references a segment the cleaner
//     returned to the allocator (Drive.CheckInvariants, the
//     deferred-reuse barrier of DESIGN.md §6);
//  6. landmarks — the recovered landmark index matches a from-scratch
//     chain walk (part of Drive.CheckInvariants too, so 5 and 6 are
//     one call);
//  7. equivalence — opening the same image with the persisted segment
//     index ignored (full-scan recount, DESIGN.md §14) recovers
//     byte-identical state and serves identical golden reads, and
//     either path recovers the same state whatever the clock reads;
//  8. ageing across the crash — one cleaner pass on the recovered drive
//     leaves invariant 5 (which audits the usage table) and every
//     in-window snapshot standing;
//  9. flush — under a delta policy, erasing the middle of every
//     object's history (FlushO across delta chains and retention skips)
//     and cleaning again leaves invariant 5 and the versions around the
//     erased ranges standing;
//
// plus a post-recovery smoke op proving the reopened drive still
// serves writes. Everything is driven by Config.Seed: a failing crash
// point reproduces exactly.
package torture

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"time"

	"s4/internal/audit"
	"s4/internal/core"
	"s4/internal/disk"
	"s4/internal/types"
	"s4/internal/vclock"
)

// Config parameterizes one torture run. The zero value of any field
// takes the default noted on it.
type Config struct {
	Seed int64
	// Ops is the number of client operations in the workload (300).
	Ops int
	// Clients is the number of distinct credentials issuing ops (3).
	Clients int
	// MaxObjects caps how many objects the workload creates (20).
	MaxObjects int
	// DiskBytes sizes the simulated device (8MB). Small on purpose:
	// every crash point replays recovery over the whole device.
	DiskBytes int64
	// SegBlocks / CheckpointBlocks parameterize the segment log (16/16).
	SegBlocks        int
	CheckpointBlocks int
	// MaxWriteBlocks caps a single overwrite's size in blocks (2).
	// Raising it past SegBlocks-1 makes vectored appends routinely
	// cross segment seals, exercising AppendVec's mid-batch seal path.
	MaxWriteBlocks int
	// CheckpointEvery forwards to core.Options.CheckpointEvery, the
	// landmark-checkpoint cadence in journal entries (0 = core default,
	// negative disables). Small values make every object emit landmarks
	// constantly, so crash images land between a checkpoint entry and
	// its journal flush, mid-aging, and mid-compaction — the index
	// rebuild paths recovery must get right.
	CheckpointEvery int
	// IndexFlushEvery, when positive, takes a drive checkpoint after
	// exactly every N ops — a deterministic segment-index write cadence
	// on top of the random CheckpointEveryN ones, so the crash-point
	// sweep lands densely on and inside the checkpoint-slot writes that
	// carry the index (and, with Torn, on their torn halves: a tear past
	// the object-map blob but inside the index region is precisely the
	// partial-index-record case that must degrade to full replay).
	IndexFlushEvery int
	// Window is the detection window (1h — far longer than the virtual
	// time the workload spans, so nothing ages out and every snapshot
	// stays checkable). A window of tens of milliseconds makes history
	// age, the cleaner relocate and objects reap inside the run, and
	// again on every recovered image (TestTortureShortWindow).
	Window time.Duration
	// SyncEveryN / CheckpointEveryN / CleanEveryN set the expected op
	// gap between Syncs (4), Checkpoints (40), and CleanOnce calls (30).
	SyncEveryN       int
	CheckpointEveryN int
	CleanEveryN      int
	// StaggerAt, when positive, jumps the clock two windows ahead after
	// that many ops. Everything written before the jump ages at once
	// while the same objects go on being written after it, so live
	// blocks the old writes left behind sit in segments whose neighbours
	// the cleaner releases — and it relocates them while their objects'
	// newer landmarks are still in-window (TestTortureRelocation). Such
	// a run also refills every recovered image after its cleaner pass —
	// filler over half of the free segments, then the snapshot oracle
	// again: whatever recovery wrongly believes free is reused first.
	StaggerAt int
	// Torn adds, for every multi-sector write, a second crash image in
	// which only the first half of that write's sectors persisted.
	Torn bool
	// TornCheckpointSweep (with Torn) tears every checkpoint-slot write
	// at every sector boundary, not just the halfway point. The segment
	// index rides at the tail of the slot blob behind the object map, so
	// only a narrow band of tear positions validates the object-map CRC
	// while cutting the index — the exact partial-index-record images
	// that must fall back to full replay. The half-point tear almost
	// never lands there; the per-sector sweep guarantees coverage.
	TornCheckpointSweep bool
	// MaxCrashPoints caps how many plain write boundaries are verified
	// (0 = all of them); sampling keeps the first and last.
	MaxCrashPoints int
	// PostRecoverySmoke issues a create+write+sync+read on each
	// recovered image to prove the drive still serves.
	PostRecoverySmoke bool
	// Policy, when non-zero, is installed as the drive-wide retention
	// policy (key 0) before the workload starts, so every crash image
	// recovers under it. DeltaEnabled routes outgoing versions through
	// reverse-delta conversion; the skip modes (landmark-only,
	// on-close) relax the snapshot oracle to exact-or-ErrNoVersion —
	// an unretained version may read back as a typed miss, but never as
	// fabricated bytes (DESIGN.md §16).
	Policy types.Policy
	// EvictHard runs the workload with an object cache of two inodes, so
	// nearly every op evicts an object and reloads another from its
	// journal chain — the path that takes a landmark image into live
	// state (DESIGN.md §12.1) — and every crash image is of a drive that
	// was running on reloaded inodes. The default cache holds every
	// object the workload creates and never reloads.
	EvictHard bool
	// UnsafeImmediateReuse forwards to core.Options: it disables the
	// cleaner's deferred-reuse barrier so regression tests can prove
	// the harness catches the resulting corruption.
	UnsafeImmediateReuse bool
	// NoDifferential skips the recovery-equivalence check. By default
	// every crash image is opened twice — once anchored at the persisted
	// segment index, once with DisableSegIndex forcing the full-scan
	// recount — and the two recovered states must be byte-identical
	// (StateDigest), hold all invariants, and serve identical golden
	// reads at several history depths. Opt out only where the doubled
	// open cost matters more than the equivalence proof.
	NoDifferential bool
	// Logf, when set, receives progress lines (pass t.Logf).
	Logf func(format string, args ...any)
	// Inspect, when set, is called with each plain crash image before
	// it is opened, so a test can count what the images hold. It must
	// only read.
	Inspect func(img disk.Device)
}

func (c *Config) fill() {
	if c.Ops == 0 {
		c.Ops = 300
	}
	if c.Clients == 0 {
		c.Clients = 3
	}
	if c.MaxObjects == 0 {
		c.MaxObjects = 20
	}
	if c.DiskBytes == 0 {
		c.DiskBytes = 8 << 20
	}
	if c.SegBlocks == 0 {
		c.SegBlocks = 16
	}
	if c.CheckpointBlocks == 0 {
		c.CheckpointBlocks = 16
	}
	if c.Window == 0 {
		c.Window = time.Hour
	}
	if c.SyncEveryN == 0 {
		c.SyncEveryN = 4
	}
	if c.CheckpointEveryN == 0 {
		c.CheckpointEveryN = 40
	}
	if c.CleanEveryN == 0 {
		c.CleanEveryN = 30
	}
	if c.MaxWriteBlocks == 0 {
		c.MaxWriteBlocks = 2
	}
}

// Violation is one broken invariant at one crash point.
type Violation struct {
	CrashPoint int  // writes persisted before the crash
	Torn       bool // write CrashPoint itself half-persisted
	Invariant  string
	Detail     string
}

func (v Violation) String() string {
	torn := ""
	if v.Torn {
		torn = "+torn"
	}
	return fmt.Sprintf("crash@%d%s [%s]: %s", v.CrashPoint, torn, v.Invariant, v.Detail)
}

// Result summarizes a torture run.
type Result struct {
	Ops         int // workload operations executed
	Writes      int // device writes recorded
	Syncs       int // durability points in the workload
	Objects     int // objects the workload created
	CrashPoints int // crash images verified (plain + torn)
	TornPoints  int // of which torn
	// Restart-path accounting across the verification opens (the
	// equivalence battery's observability: every image reports how it
	// was recovered, so a sweep that silently stopped exercising the
	// index would show up here, not pass vacuously).
	IndexLoads     int64 // opens anchored at a persisted segment index
	IndexFallbacks int64 // opens that found a checkpoint but fell back to full scan
	ReplayIndexed  int64 // journal entries replayed by the indexed opens
	ReplayFull     int64 // journal entries replayed by the full-scan opens
	// DeltaBlocks / SkippedVersions are the workload drive's
	// packed-delta-block and retention-drop counts, so policy sweeps
	// can assert the paths they mean to cover actually fired.
	DeltaBlocks     int64
	SkippedVersions int64
	// Cleaned sums what the workload's own cleaner passes did, so a
	// sweep that means to cross ageing, relocation and reaping can assert
	// they happened.
	Cleaned core.CleanStats
	// LandmarkedRelocs counts the workload's relocations of a data block
	// of an object that had landmarks indexed (its landmark floor rose
	// and the index emptied); LandmarkReads counts the history reads the
	// recovered drives anchored at a landmark. A relocation sweep needs
	// both above zero.
	LandmarkedRelocs int
	LandmarkReads    int64
	// SpaceRetries counts the workload ops the drive refused with
	// ErrNoSpace and served after the cleaner pass the refusal asks for.
	SpaceRetries int
	Violations   []Violation
}

// Run executes the workload and verifies every crash point.
func Run(cfg Config) (Result, error) {
	cfg.fill()
	w, err := runWorkload(cfg)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Ops:             cfg.Ops,
		Writes:          w.rec.Writes(),
		Syncs:           len(w.syncs),
		Objects:         len(w.objects),
		DeltaBlocks:     w.deltaBlocks,
		SkippedVersions: w.skippedVersions,
		Cleaned:         w.cleaned,
	}
	res.LandmarkedRelocs, res.SpaceRetries = w.landmarkedRelocs, w.spaceRetries
	points := make([]int, 0, res.Writes+1)
	for k := 0; k <= res.Writes; k++ {
		points = append(points, k)
	}
	if cfg.MaxCrashPoints > 0 && len(points) > cfg.MaxCrashPoints {
		sampled := make([]int, 0, cfg.MaxCrashPoints)
		stride := float64(len(points)-1) / float64(cfg.MaxCrashPoints-1)
		for i := 0; i < cfg.MaxCrashPoints; i++ {
			sampled = append(sampled, int(float64(i)*stride))
		}
		sampled[len(sampled)-1] = len(points) - 1
		points = sampled
	}
	for i, k := range points {
		img, err := w.rec.ImageAt(k)
		if err != nil {
			return res, err
		}
		// The equivalence check needs a second pristine materialization:
		// verification itself mutates the opened image (audit records,
		// post-recovery smoke writes), so the full-scan open cannot share
		// the device the indexed open already touched.
		var img2 disk.Device
		if !cfg.NoDifferential {
			if img2, err = w.rec.ImageAt(k); err != nil {
				return res, err
			}
		}
		if cfg.Inspect != nil {
			cfg.Inspect(img)
		}
		res.CrashPoints++
		res.Violations = append(res.Violations, w.verifyImage(&res, img, img2, k, false)...)
		if cfg.Torn && k < res.Writes {
			if rec := w.rec.Record(k); rec.Sectors() >= 2 {
				sec := rec.Sectors()
				keeps := []int{sec / 2}
				if cfg.TornCheckpointSweep && w.isCheckpointSlotWrite(rec) {
					keeps = keeps[:0]
					for s := 1; s < sec; s++ {
						keeps = append(keeps, s)
					}
				}
				for _, keep := range keeps {
					timg, err := w.rec.TornImageAt(k, keep)
					if err != nil {
						return res, err
					}
					var timg2 disk.Device
					if !cfg.NoDifferential {
						if timg2, err = w.rec.TornImageAt(k, keep); err != nil {
							return res, err
						}
					}
					res.CrashPoints++
					res.TornPoints++
					res.Violations = append(res.Violations, w.verifyImage(&res, timg, timg2, k, true)...)
				}
			}
		}
		if cfg.Logf != nil && (i+1)%200 == 0 {
			cfg.Logf("torture seed=%d: %d/%d crash points, %d violations",
				cfg.Seed, i+1, len(points), len(res.Violations))
		}
	}
	return res, nil
}

// verifyImage reopens one crash image and checks every invariant.
// Panics anywhere in recovery or verification count as recovery
// violations ("never wedges"), not test crashes. dev2, when non-nil, is
// a second pristine materialization of the same image for the
// recovery-equivalence check (invariant 7).
func (w *run) verifyImage(res *Result, dev, dev2 disk.Device, k int, torn bool) (vs []Violation) {
	viol := func(inv, format string, args ...any) {
		vs = append(vs, Violation{CrashPoint: k, Torn: torn, Invariant: inv, Detail: fmt.Sprintf(format, args...)})
	}
	defer func() {
		if r := recover(); r != nil {
			viol("recovery", "panic: %v", r)
		}
	}()

	// Invariant 1: recovery itself.
	opts := w.opts
	opts.Clock = vclock.NewVirtualAt(w.endTime.Time())
	drv, err := core.Open(dev, opts)
	if err != nil {
		viol("recovery", "reopen failed: %v", err)
		return vs
	}
	// The digest must be taken before any verification traffic: reads
	// below append audit state to the reopened drive, which would
	// diverge it from the freshly opened full-scan twin.
	mark := w.lastMark(k)
	var idxDigest string
	if dev2 != nil {
		idxDigest = drv.StateDigest()
		if msg := w.checkClockFree(dev, opts, mark, idxDigest); msg != "" {
			viol("equivalence", "indexed recovery %s", msg)
		}
	}
	st := drv.GetStats()
	res.IndexLoads += st.IndexLoads
	res.IndexFallbacks += st.IndexFallbacks
	res.ReplayIndexed += st.RecoveryReplayEntries
	admin := types.AdminCred()

	now := drv.Now()
	winCut := now - types.Timestamp(w.opts.Window)

	// Invariant 4: the recovered audit log is a contiguous run of the
	// oracle's op sequence — a prefix may have aged out of the
	// detection window and a post-checkpoint tail may be lost, but
	// every checkpoint-covered record inside the window must be
	// present, in order, with matching op/object/user/outcome. Checked
	// first — verification reads below append their own audit records
	// to the reopened drive.
	recs, err := drv.AuditRead(admin, 0, 0)
	if err != nil {
		viol("audit", "audit read failed: %v", err)
	} else if msg := w.checkAudit(recs, w.lastCpMark(k), winCut); msg != "" {
		viol("audit", "%s", msg)
	}

	// Invariant 5: no durable structure reaches into a freed segment.
	// Invariant 6: the recovered landmark index matches a from-scratch
	// chain walk — every indexed landmark is above both of its object's
	// floors and decodes at the sector the chain records it at, and
	// every checkpoint entry above both floors whose root still
	// validates is indexed.
	if err := drv.CheckInvariants(); err != nil {
		viol("reuse", "%v", err)
	}

	// Invariants 2 and 3: everything synced before the crash — the
	// newest durable version of each object and all window-covered
	// history beneath it — must read back exactly.
	checkSnaps := func(when string) {
		w.checkSynced(drv, mark, winCut, func(inv, msg string) { viol(inv, "%s%s", msg, when) })
	}
	checkSnaps("")

	// Unsynced state may be lost, but the drive must still serve it
	// without internal errors: absent entirely, or readable.
	for _, m := range w.objects {
		ai, err := drv.GetAttr(admin, m.id, types.TimeNowest)
		if err != nil {
			if !errors.Is(err, types.ErrNoObject) {
				viol("recovery", "object %v getattr after recovery: %v", m.id, err)
			}
			continue
		}
		if !ai.Deleted && ai.Size > 0 {
			if _, err := drv.Read(admin, m.id, 0, min64(ai.Size, types.MaxIO), types.TimeNowest); err != nil {
				viol("recovery", "object %v unreadable after recovery: %v", m.id, err)
			}
		}
	}

	// Invariant 8: a recovered drive that cannot survive its own cleaner
	// is not recovered.
	if msg := cleanRecovered(drv); msg != "" {
		viol("ageing", "%s", msg)
	}
	checkSnaps(" after the cleaner")
	if w.cfg.StaggerAt > 0 {
		if err := w.refill(drv); err != nil {
			viol("recovery", "post-recovery refill: %v", err)
		}
		checkSnaps(" after the refill")
	}
	res.LandmarkReads += drv.GetStats().LandmarkHits
	if w.cfg.Policy.DeltaEnabled {
		if msg := w.flushMiddles(drv, mark, winCut); msg != "" {
			viol("flush", "%s", msg)
		}
	}

	// The reopened drive must still accept and persist new work.
	if w.cfg.PostRecoverySmoke {
		cred := types.Cred{User: 100, Client: 1}
		payload := []byte("post-crash smoke write")
		id, err := drv.Create(cred, everyoneACL(), nil)
		if err != nil {
			viol("recovery", "post-crash create: %v", err)
			return vs
		}
		if err := drv.Write(cred, id, 0, payload); err != nil {
			viol("recovery", "post-crash write: %v", err)
			return vs
		}
		if err := drv.Sync(cred); err != nil {
			viol("recovery", "post-crash sync: %v", err)
			return vs
		}
		got, err := drv.Read(cred, id, 0, uint64(len(payload)), types.TimeNowest)
		if err != nil || !bytes.Equal(got, payload) {
			viol("recovery", "post-crash readback: %q, %v", got, err)
		}
	}

	// Invariant 7: recovery equivalence — the same crash image opened
	// with the segment index ignored must recover byte-identical state.
	if dev2 != nil {
		vs = append(vs, w.verifyEquivalence(res, dev2, idxDigest, k, torn)...)
	}
	return vs
}

// checkSynced holds invariants 2 and 3 on a recovered drive: every
// oracle snapshot at or before the durability point mark, and younger
// than winCut, reads back exactly. Each miss is reported under the
// invariant it breaks — "durability" for an object's newest such
// snapshot, "history" for the ones beneath it.
func (w *run) checkSynced(drv *core.Drive, mark *syncMark, winCut types.Timestamp, report func(inv, msg string)) {
	if mark == nil {
		return
	}
	admin := types.AdminCred()
	for _, m := range w.objects {
		newest := -1
		for si := range m.snaps {
			if m.snaps[si].at <= mark.at {
				newest = si
			}
		}
		for si := 0; si <= newest; si++ {
			sn := &m.snaps[si]
			if sn.at <= winCut {
				continue // aged out of the guarantee
			}
			inv := "history"
			if si == newest {
				inv = "durability"
			}
			if msg := checkSnap(drv, admin, m.id, sn, w.relaxed); msg != "" {
				report(inv, fmt.Sprintf("object %v: %s", m.id, msg))
			}
		}
	}
}

// verifyEquivalence opens a pristine copy of a crash image with
// DisableSegIndex (full-scan recount), requires its recovered state to
// digest-identically match the indexed open, holds the structural
// invariants on it too, and golden-reads every object at several
// history depths — newest durable, oldest in-window, and one in
// between — so "identical state" is proven at the read surface, not
// just the digest.
func (w *run) verifyEquivalence(res *Result, dev disk.Device, idxDigest string, k int, torn bool) (vs []Violation) {
	viol := func(format string, args ...any) {
		vs = append(vs, Violation{CrashPoint: k, Torn: torn, Invariant: "equivalence", Detail: fmt.Sprintf(format, args...)})
	}
	defer func() {
		if r := recover(); r != nil {
			viol("full-scan panic: %v", r)
		}
	}()
	opts := w.opts
	opts.Clock = vclock.NewVirtualAt(w.endTime.Time())
	opts.DisableSegIndex = true
	drv, err := core.Open(dev, opts)
	if err != nil {
		viol("full-scan reopen failed: %v", err)
		return vs
	}
	fullDigest := drv.StateDigest()
	res.ReplayFull += drv.GetStats().RecoveryReplayEntries
	if fullDigest != idxDigest {
		viol("indexed and full-scan recovery diverged: %s", digestDiff(idxDigest, fullDigest))
	}
	mark := w.lastMark(k)
	if msg := w.checkClockFree(dev, opts, mark, fullDigest); msg != "" {
		viol("full-scan recovery %s", msg)
	}
	if err := drv.CheckInvariants(); err != nil {
		viol("full-scan invariants: %v", err)
	}

	admin := types.AdminCred()
	winCut := drv.Now() - types.Timestamp(w.cfg.Window)
	goldenReads := func(when string) {
		if mark == nil {
			return
		}
		for _, m := range w.objects {
			newest := -1
			for si := range m.snaps {
				if m.snaps[si].at <= mark.at {
					newest = si
				}
			}
			if newest < 0 {
				continue
			}
			oldest := -1
			for si := 0; si <= newest; si++ {
				if m.snaps[si].at > winCut {
					oldest = si
					break
				}
			}
			if oldest < 0 {
				continue
			}
			depths := []int{newest}
			if oldest != newest {
				depths = append(depths, oldest)
			}
			if mid := (oldest + newest) / 2; mid != newest && mid != oldest {
				depths = append(depths, mid)
			}
			for _, si := range depths {
				if msg := checkSnap(drv, admin, m.id, &m.snaps[si], w.relaxed); msg != "" {
					viol("full-scan golden read%s, object %v snap %d: %s", when, m.id, si, msg)
				}
			}
		}
	}
	goldenReads("")
	if msg := cleanRecovered(drv); msg != "" {
		viol("full-scan %s", msg)
	}
	goldenReads(" after the cleaner")
	return vs
}

// refill writes filler over half of drv's free segments. Allocation is
// lowest-free-first, so a segment recovery wrongly counts empty is
// among the first reused.
func (w *run) refill(drv *core.Drive) error {
	cred := types.Cred{User: 100, Client: 1}
	id, err := drv.Create(cred, everyoneACL(), nil)
	blocks := drv.Status().FreeSegments * int64(w.cfg.SegBlocks-1) / 2
	fill := bytes.Repeat([]byte{0x77}, types.BlockSize)
	for i := int64(0); i < blocks && err == nil; i++ {
		err = drv.Write(cred, id, uint64(i)*types.BlockSize, fill)
	}
	if err == nil {
		err = drv.Sync(cred)
	}
	if errors.Is(err, types.ErrNoSpace) {
		return nil // as full as it gets
	}
	return err
}

// flushMiddles erases the middle third of every object's durable
// history — under a delta policy, FlushO across packed-slot chains and
// retention skips, whose erased entries' blocks the overwrites above
// them had already converted or dropped, and released — then runs the
// cleaner and the structural check over what is left, and reads back
// the two versions of each object the erase must keep: the state at the
// range's start and the newest durable one. It runs last: the history
// it erases is gone.
func (w *run) flushMiddles(drv *core.Drive, mark *syncMark, winCut types.Timestamp) string {
	if mark == nil {
		return ""
	}
	admin := types.AdminCred()
	type erased struct {
		id   types.ObjectID
		keep [2]*snapshot
	}
	var done []erased
	for _, m := range w.objects {
		var durable []*snapshot // in-window, at or before mark
		for si := range m.snaps {
			if sn := &m.snaps[si]; sn.at > winCut && sn.at <= mark.at {
				durable = append(durable, sn)
			}
		}
		if len(durable) < 3 || durable[len(durable)-1].deleted {
			continue
		}
		// The range ends below the newest durable version, which it must
		// not erase.
		last := len(durable) - 1
		from, to := durable[last/3], durable[2*last/3]
		if err := drv.FlushO(admin, m.id, from.at, to.at); err != nil {
			return fmt.Sprintf("FlushO of object %v over (%v, %v]: %v", m.id, from.at, to.at, err)
		}
		done = append(done, erased{m.id, [2]*snapshot{from, durable[last]}})
	}
	if msg := cleanRecovered(drv); msg != "" {
		return "after FlushO: " + msg
	}
	for _, e := range done {
		for _, sn := range e.keep {
			if msg := checkSnap(drv, admin, e.id, sn, w.relaxed); msg != "" {
				return fmt.Sprintf("object %v after FlushO: %s", e.id, msg)
			}
		}
	}
	return ""
}

// cleanRecovered runs one cleaner pass on a freshly recovered drive and
// re-checks its structure. Everything that left the window while the
// drive was down is released here and nowhere else, so this is the pass
// that would release it twice, or release what is still in-window, if
// recovery and the cleaner disagreed about the history pool.
func cleanRecovered(drv *core.Drive) string {
	if _, err := drv.CleanOnce(); err != nil {
		return fmt.Sprintf("cleaner pass on the recovered drive: %v", err)
	}
	if err := drv.CheckInvariants(); err != nil {
		return fmt.Sprintf("invariants after the cleaner: %v", err)
	}
	return ""
}

// checkClockFree reopens dev a virtual day later than opts says and
// requires the recovered state to be the one the first open produced:
// recovery is a function of the image, not of when it runs. dev already
// carries whatever journal-tail truncation the first open wrote (the
// same cut either time), and nothing has been appended to it since.
// Images from before the first durability point are exempt: they may
// not hold the partition table yet, and Open then creates it stamped
// with the current time — initialization, not recovery.
func (w *run) checkClockFree(dev disk.Device, opts core.Options, mark *syncMark, digest string) string {
	if mark == nil {
		return ""
	}
	opts.Clock = vclock.NewVirtualAt(w.endTime.Time().Add(24 * time.Hour))
	later, err := core.Open(dev, opts)
	if err != nil {
		return fmt.Sprintf("a day later failed: %v", err)
	}
	if d := later.StateDigest(); d != digest {
		return fmt.Sprintf("depends on the clock: %s", digestDiff(digest, d))
	}
	return ""
}

// digestDiff summarizes the first few differing lines of two state
// digests, so an equivalence violation names the diverged structure
// instead of dumping two full digests.
func digestDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	var diffs []string
	for i := 0; i < len(la) || i < len(lb); i++ {
		var x, y string
		if i < len(la) {
			x = la[i]
		}
		if i < len(lb) {
			y = lb[i]
		}
		if x != y {
			diffs = append(diffs, fmt.Sprintf("line %d: %q vs %q", i, x, y))
			if len(diffs) == 5 {
				diffs = append(diffs, "...")
				break
			}
		}
	}
	return strings.Join(diffs, "; ")
}

// checkAudit matches the recovered audit records against the oracle's
// op sequence, returning "" if they form a contiguous run of it whose
// absent prefix is entirely older than the detection window (eligible
// for aging) and whose absent tail is entirely newer than the last
// durable checkpoint (audit records batch a block at a time per
// §5.1.4, so individual Syncs do not pin them). Audit timestamps are
// nondecreasing, so aging can only ever trim a prefix and a crash can
// only ever lose a suffix.
func (w *run) checkAudit(recs []audit.Record, mark *syncMark, winCut types.Timestamp) string {
	markAt := types.Timestamp(0)
	if mark != nil {
		markAt = mark.at
	}
	limit := 0
	for limit < len(w.audits) && w.audits[limit].at <= winCut {
		limit++
	}
	match := func(i int) bool {
		if i+len(recs) > len(w.audits) {
			return false
		}
		for j, r := range recs {
			exp := w.audits[i+j]
			if r.Op != exp.op || r.Obj != exp.obj || r.User != exp.user || r.OK != exp.ok {
				return false
			}
		}
		// Everything the oracle has beyond the recovered run must have
		// been unacknowledged when the crash hit.
		return i+len(recs) >= len(w.audits) || w.audits[i+len(recs)].at > markAt
	}
	for i := 0; i <= limit; i++ {
		if match(i) {
			return ""
		}
	}
	first := "none"
	if len(recs) > 0 {
		first = fmt.Sprintf("{op %v obj %v user %v ok %v}", recs[0].Op, recs[0].Obj, recs[0].User, recs[0].OK)
	}
	return fmt.Sprintf("%d recovered records (first %s) do not align with the %d-op oracle (%d age-eligible, durable through %v)",
		len(recs), first, len(w.audits), limit, markAt)
}

// checkSnap verifies one oracle snapshot against the recovered drive,
// returning "" on success. relaxed is the skip-mode retention contract
// (DESIGN.md §16): a version the policy declined to retain may read
// back as typed ErrNoVersion — but a read that succeeds must still be
// byte-exact. Anything else (other errors, wrong bytes) stays a
// violation: retention may cost history availability, never integrity.
func checkSnap(drv *core.Drive, admin types.Cred, id types.ObjectID, sn *snapshot, relaxed bool) string {
	skipOK := func(err error) bool { return relaxed && errors.Is(err, types.ErrNoVersion) }
	if sn.deleted {
		if _, err := drv.Read(admin, id, 0, 1, sn.at); !errors.Is(err, types.ErrNoObject) && !skipOK(err) {
			return fmt.Sprintf("read at %v of deleted version: %v (want ErrNoObject)", sn.at, err)
		}
		return ""
	}
	ai, err := drv.GetAttr(admin, id, sn.at)
	if err != nil {
		if skipOK(err) {
			return ""
		}
		return fmt.Sprintf("getattr at %v: %v", sn.at, err)
	}
	if ai.Deleted {
		return fmt.Sprintf("version at %v reads as deleted", sn.at)
	}
	if ai.Size != uint64(len(sn.data)) {
		return fmt.Sprintf("size at %v = %d, oracle %d", sn.at, ai.Size, len(sn.data))
	}
	if !bytes.Equal(ai.Attr, sn.attr) {
		return fmt.Sprintf("attr at %v = %q, oracle %q", sn.at, ai.Attr, sn.attr)
	}
	var got []byte
	for off := uint64(0); off < ai.Size; off += types.MaxIO {
		part, err := drv.Read(admin, id, off, min64(ai.Size-off, types.MaxIO), sn.at)
		if err != nil {
			if skipOK(err) {
				return ""
			}
			return fmt.Sprintf("read at %v off %d: %v", sn.at, off, err)
		}
		got = append(got, part...)
	}
	if !bytes.Equal(got, sn.data) {
		for i := range got {
			if got[i] != sn.data[i] {
				return fmt.Sprintf("content at %v differs from byte %d of %d", sn.at, i, len(sn.data))
			}
		}
		return fmt.Sprintf("content at %v truncated: %d of %d bytes", sn.at, len(got), len(sn.data))
	}
	return ""
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
