// Package core implements the S4 self-securing storage drive — the
// paper's primary contribution (OSDI '00, §4).
//
// A Drive is a flat object store that versions every modification,
// audits every request, and guarantees that no client command can
// destroy history younger than the detection window. It combines:
//
//   - a log-structured on-disk layout (internal/seglog) so versioning
//     costs nothing at write time;
//   - journal-based metadata (internal/journal) so each version's
//     metadata is a compact entry rather than fresh inode/indirect
//     blocks;
//   - an append-only audit log (internal/audit);
//   - a cleaner that reclaims only space aged out of the window;
//   - history-pool abuse throttling (internal/throttle).
//
// All exported methods are safe for concurrent use.
//
// # Lock hierarchy
//
// The drive uses layered locks so that operations on different objects
// proceed in parallel and readers of one object proceed in parallel
// with each other (DESIGN.md §9). Acquisition order, outermost first:
//
//	Drive.mu (RWMutex)  >  object.mu (RWMutex)  >  Drive.logMu
//	                                            >  seglog.Log (internal)
//
// with auditMu, statsMu, lruMu, and the block and reconstruction
// caches' internal mutexes as leaves that never hold anything else
// except the seglog lock (audit flushes append to the log while holding
// auditMu).
//
//   - Per-object operations (Read/Write/GetAttr/...) hold Drive.mu for
//     reading for their entire duration and take object.mu for the one
//     object they touch. Two object locks are never held at once.
//   - Whole-drive operations (Create, CleanOnce, Checkpoint, Flush,
//     Close, SetWindow, CheckInvariants, eviction, partition updates,
//     recovery) hold Drive.mu for writing, which excludes every
//     per-object operation; they may then touch any object's fields
//     without taking object locks.
//
// Functions named *Locked document in their comment which of these
// locks the caller must hold.
//
// # Ways in
//
// Every per-object mutation (Write, Append, Truncate, SetAttr, SetACL,
// Delete, Revert) enters through one door, mutateShared: a closed
// drive, the op's own argument check, a reserved ID, then lookup and
// load under the exclusive object lock; then a deleted object, the op's
// permission and the throttle (Revert takes its own two-version
// permission step in place of the first two). One place hands out
// version numbers: object.mint stamps an entry with the next version,
// the time and the caller. The whole-drive administrative ops
// (types.Op.Admin) pass one gate, adminGate: a closed drive first, then
// administrative credentials; whatever they end with is audited. One
// reader turns an inode into bytes, live or past: readExtent serves
// Read, Revert's copy-forward, Flush's demotion and the drive's tables.
// One writer puts new data blocks in the log: writeBlocksLocked, for
// writes, Revert and a shrink's retained tail.
package core

import (
	"cmp"
	"container/list"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"s4/internal/disk"
	"s4/internal/journal"
	"s4/internal/seglog"
	"s4/internal/throttle"
	"s4/internal/types"
	"s4/internal/vclock"
)

// Options configures a Drive at Format/Open time.
type Options struct {
	// Clock provides time; nil means the wall clock.
	Clock vclock.Clock
	// SegBlocks, CheckpointBlocks parameterize the segment log; zero
	// values take seglog defaults.
	SegBlocks        int
	CheckpointBlocks int
	// Window is the guaranteed detection window (§3.3). Zero defaults
	// to seven days. SetWindow adjusts it at run time.
	Window time.Duration
	// BlockCacheBytes bounds the drive's buffer cache (paper: 128MB).
	BlockCacheBytes int64
	// ObjectCacheCount bounds in-memory inodes (paper: a 32MB object
	// cache); beyond it, cold objects are checkpointed and evicted.
	ObjectCacheCount int
	// DisableAudit turns off request auditing (Fig. 6 ablation).
	DisableAudit bool
	// Conventional enables the conventional-versioning ablation: every
	// metadata change immediately writes a fresh inode checkpoint, the
	// way a versioning file system without journal-based metadata would
	// (Fig. 2). Journal entries are still kept for correctness.
	Conventional bool
	// SurfaceThrottle changes how abuse penalties are served: instead of
	// sleeping in-band (holding the target object's lock for the whole
	// penalty), a penalized mutation fails fast with a
	// types.RetryableError wrapping ErrThrottled that carries the delay
	// as a retry-after hint. The RPC server sets this so the penalty is
	// served client-side by backoff rather than by a captive worker;
	// direct in-process callers keep the transparent sleep.
	SurfaceThrottle bool
	// CheckpointEvery writes a landmark checkpoint entry into a hot
	// object's journal chain after every N real entries, bounding the
	// back-in-time reconstruction walk to ~N undos (DESIGN.md §12.1).
	// Each landmark costs its inode image's bytes in the journal — the
	// paper's history-pool-space vs. read-cost tradeoff made tunable.
	// Zero takes the default (32); negative disables landmarks.
	CheckpointEvery int
	// UnsafeImmediateReuse disables the deferred-reuse barrier: the
	// cleaner returns emptied segments to the allocator immediately
	// instead of holding them until the next checkpoint commits. This
	// deliberately re-creates the crash window the barrier exists to
	// close (DESIGN.md §6) so the torture harness can prove it catches
	// the resulting corruption. Never set outside tests.
	UnsafeImmediateReuse bool
	// DisableSegIndex ignores the persisted segment index at Open and
	// recovers from the empty base: every object's usage is rebuilt from
	// its whole chain (DESIGN.md §14.2). It affects only the open path —
	// checkpoints still write the index — so the recovery-equivalence
	// battery can open the same crash image on both bases and diff the
	// results.
	DisableSegIndex bool

	// Knobs only the package's own tests set. throttleCfg overrides the
	// history-pool abuse detector configuration.
	throttleCfg *throttle.Config
	// reconCacheBytes bounds the reconstructed-inode cache (DESIGN.md
	// §12.2). Zero takes the default (4MB); negative disables it.
	reconCacheBytes int64
	// maxDeltaChain bounds how many consecutive overwrites of one block
	// may be stored as reverse deltas before a full-block keyframe is
	// forced (DESIGN.md §16). Longer chains save more history-pool
	// space but make deep back-in-time reads decode more slots. Zero
	// takes the default (8); negative disables delta encoding entirely
	// even for delta-enabled policies.
	maxDeltaChain int
}

// pendingFlushEntries bounds unflushed journal entries per object before
// a forced sector flush.
const pendingFlushEntries = 64

func (o *Options) fill(dev disk.Device) {
	if o.Clock == nil {
		o.Clock = vclock.Wall{}
	}
	if o.SegBlocks == 0 {
		o.SegBlocks = seglog.DefaultConfig().SegBlocks
	}
	if o.CheckpointBlocks == 0 {
		o.CheckpointBlocks = seglog.DefaultConfig().CheckpointBlocks
	}
	if o.Window == 0 {
		o.Window = 7 * 24 * time.Hour
	}
	if o.BlockCacheBytes == 0 {
		o.BlockCacheBytes = 16 << 20
	}
	if o.ObjectCacheCount == 0 {
		o.ObjectCacheCount = 4096
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 32
	}
	if o.reconCacheBytes == 0 {
		o.reconCacheBytes = 4 << 20
	}
	if o.maxDeltaChain == 0 {
		o.maxDeltaChain = 8
	}
	if o.throttleCfg == nil {
		cfg := throttle.DefaultConfig(dev.Capacity() / 2)
		o.throttleCfg = &cfg
	}
}

// object is the drive's in-memory state for one object.
//
// Fields are guarded by mu together with the drive lock: per-object
// operations hold Drive.mu for reading plus o.mu (shared for reads,
// exclusive for mutations); whole-drive operations hold Drive.mu for
// writing and may access the fields directly, since that excludes
// every per-object operation.
type object struct {
	id types.ObjectID
	mu sync.RWMutex

	ino         *Inode // nil when evicted (reloadable from cpBlocks)
	nextVersion uint64
	// Last durable full-metadata checkpoint.
	inodeRoot seglog.BlockAddr
	cpBlocks  []seglog.BlockAddr // overflow blocks + root
	cpVersion uint64
	// Journal chain: jhead is the newest flushed sector, jtail the
	// oldest retained one (the cleaner advances it as entries age).
	jhead, jtail journal.SectorAddr
	pending      []*journal.Entry // entries not yet in a flushed sector
	// chain is the chain index: the retained chain's sector addresses
	// oldest first (chain[0] == jtail, the last one == jhead), 8 bytes a
	// sector. Chains link newest to oldest and entries age at the old
	// end, so without it every ageing visit walks the whole chain to
	// reach the part it can act on. nil on an object that has a chain
	// means not built yet: the first ripe visit after Open or a reload
	// walks the chain once (chainIndexLocked). From then on
	// flushJournalLocked extends it, pruning trims it, relocation and
	// Flush replace it, and eviction drops it with the inode.
	// CheckInvariants compares it with the chain.
	chain []journal.SectorAddr
	// chainAged counts the leading sectors of chain that an ageing pass
	// has passed whole: every entry in them is at or below floorVersion
	// and no newer than floorTime, so the next visit starts past them
	// (they stay in the chain until enough collect to pay for a prune).
	chainAged int
	// Decoded image of the head sector, mirroring what is on disk at
	// jhead, so the per-sync merge path need not re-read and re-decode
	// it. nil jheadEntries means unknown (e.g. after recovery or chain
	// relocation): the merge falls back to reading the sector.
	jheadPrev    journal.SectorAddr
	jheadEntries []journal.Entry
	// floorVersion/floorTime: entries at or below have been aged out;
	// reads older than floorTime are unreconstructible.
	floorVersion uint64
	floorTime    types.Timestamp
	// nextAge is the earliest instant at which another aging pass can
	// free anything (oldest retained entry time + window); the cleaner
	// skips the object before then, keeping idle passes cheap.
	nextAge types.Timestamp
	// pruned is set once the chain alone cannot rebuild the object: it
	// was pruned, relocated or Flushed. The next barrier or eviction
	// writes its inode block (checkpointObjectLocked), and the object
	// keeps one from then on.
	pruned bool
	// landmarks is the in-memory index of the checkpoint entries in the
	// journal chain, ascending by time (DESIGN.md §12.1). Invariant: it
	// holds exactly the chain's and the pending tail's checkpoint entries
	// above both floorVersion and lmFloor whose images decode —
	// registration (appendEntry), sector fill-in (flushJournalLocked),
	// aging/reap/Flush removal (cleaner, flushObjectLocked), and
	// relocation re-registration (relocateChainLocked) all preserve that.
	// Persisted in the segment index at checkpoint; recovery's
	// accountObject adds the tail's (on the empty base, every chain's)
	// while it walks the chain.
	landmarks     []landmark
	sinceLandmark int // real entries appended since the last landmark
	// lmFloor is the landmark floor: checkpoint entries at or below this
	// version are dead whatever their images still decode to. A landmark
	// image is a full inode, so it names the live blocks of its day;
	// when the cleaner moves one of them it raises the floor to the
	// current version (compactSegmentLocked). Persisted in the object
	// map by the checkpoint that makes the move itself durable.
	lmFloor uint64
	// relocPending is set from the moment the cleaner moves one of o's
	// live data blocks until the barrier checkpoint makes the move
	// durable. A crash in between recovers the object at the old
	// addresses, so a landmark image taken in between — which names the
	// copies — would not be the replay of the recovered chain below it:
	// none is emitted (maybeEmitLandmarkLocked).
	relocPending bool
	lruEl        *list.Element

	// Delta-history bookkeeping (DESIGN.md §16), all volatile: after a
	// restart every map is empty, which only disables conversions (the
	// next overwrite of each block keyframes) — correctness never
	// depends on them.
	//
	// birth records, per live data-block address, the version and time
	// of the entry that appended it. The write path may only
	// delta-convert an old block whose birth is known: the encoder needs
	// to prove no landmark image at or above that version references the
	// address it is about to free.
	birth map[seglog.BlockAddr]blockBirth
	// deltaRun counts, per file block index, how many consecutive
	// overwrites were stored as deltas; at maxDeltaChain the next
	// overwrite keyframes and the run resets.
	deltaRun map[uint64]int
	// retainedVer is the newest version whose data the retention policy
	// keeps (zero = everything). Under landmark-only or on-close modes,
	// an outgoing version newer than retainedVer has its old blocks
	// dropped (journal entry kept, data freed) at the next overwrite.
	retainedVer uint64
}

// blockBirth is the provenance of one live data block: the journal
// entry (version, time) that appended it.
type blockBirth struct {
	ver uint64
	t   types.Timestamp
}

// landmark is one entry of an object's checkpoint index: where its
// EntCheckpoint journal entry, which carries the inode image, sits.
// sector is NilSector until the entry reaches a flushed sector; the
// reconstruction walk only anchors at flushed landmarks.
type landmark struct {
	time    types.Timestamp
	version uint64
	sector  journal.SectorAddr
}

// Stats reports drive activity counters.
type Stats struct {
	Ops             map[types.Op]int64
	VersionsMade    int64
	BytesWritten    int64
	BytesRead       int64
	HistoryBlocks   int64
	LiveBlocks      int64
	FreeSegments    int64
	TotalSegments   int64
	CacheHits       int64
	CacheMisses     int64
	AuditRecords    int64
	CleanerRuns     int64
	SegmentsFreed   int64
	BlocksCompacted int64
	ThrottleDelays  time.Duration

	// Commit-pipeline counters (DESIGN.md §11).
	CommitBatches  int64 // group commits led (one device force each)
	SyncsCoalesced int64 // Sync calls satisfied by another leader's force
	VecAppends     int64 // multi-block vectored append batches
	FlushStalls    int64 // syncs, sealing appends, rewrites and summary reads that waited out an in-flight flush
	DeviceForces   int64 // segment-log device flushes (partial or seal)
	LogAppends     int64 // payload blocks appended to the segment log
	DirtyObjects   int64 // objects currently in the sync dirty set

	// History-read-path counters (DESIGN.md §12).
	ReadOps            int64 // Read calls served (live or historical)
	HistoryWalkEntries int64 // journal entries visited by reconstruction walks
	LandmarkHits       int64 // reconstructions anchored at a landmark checkpoint
	ReconCacheHits     int64 // reconstructions served from the inode-at-time cache
	ReconCacheMisses   int64 // reconstructions that had to walk
	DeviceReads        int64 // segment-log device read I/Os
	VecReads           int64 // multi-block coalesced device reads
	// Journal-block lookups in the block cache (every chain walker reads
	// sectors through it); CacheHits/CacheMisses count data blocks only.
	JournalCacheHits   int64
	JournalCacheMisses int64

	// Restart counters (DESIGN.md §14). Set once by Open; reads are
	// reported through the same snapshot as everything else.
	IndexLoads            int64         // opens that anchored at a persisted segment index
	IndexFallbacks        int64         // opens that found a checkpoint but fell back to full scan
	RecoveryReplayEntries int64         // journal entries examined while recovering
	RecoveryTruncations   int64         // journal tails cut for naming un-durable blocks
	OpenDuration          time.Duration // wall-clock time spent in recovery at Open

	// Integrity counters (DESIGN.md §15). Detection/repair/quarantine
	// are merged from the segment log, which verifies every media read;
	// the scrub counters track the background sweeper.
	ScrubPasses         int64 // full-log scrub sweeps completed
	ScrubBlocks         int64 // blocks verified by scrub sweeps
	CorruptDetected     int64 // media blocks that failed their checksum
	CorruptRepaired     int64 // corrupt blocks healed from a redundant copy
	QuarantinedSegments int64 // segments withheld from reuse after corruption

	// History-pool delta counters (DESIGN.md §16).
	DeltaBlocksWritten    int64 // packed delta blocks appended to the log
	DeltaBytesSaved       int64 // history bytes avoided by delta conversion
	ChainKeyframes        int64 // conversions refused by the delta-chain bound
	PolicySkippedVersions int64 // outgoing versions whose data retention dropped
}

// Drive is an open S4 drive. See the package comment for the lock
// hierarchy its fields follow.
type Drive struct {
	dev  disk.Device
	log  *seglog.Log
	clk  vclock.Clock
	opts Options

	// mu is the drive-wide structural lock. Held shared by every
	// per-object operation for its whole duration (including lock-free
	// history walks: the shared hold is what keeps the cleaner and
	// Flush from rewriting sectors mid-walk); held exclusively by
	// whole-drive operations. objects, nextOID, window, and closed are
	// written only under the exclusive hold.
	mu      sync.RWMutex
	objects map[types.ObjectID]*object
	// objOrder holds the keys of objects in ascending order, so every
	// whole-drive sweep (checkpoint, the cleaner's ageing phase, the
	// invariant checker) visits objects in one deterministic order without
	// sorting the table first. cleanCursor is the ID at which the next
	// ageing pass resumes. Both follow objects' locking.
	objOrder    []types.ObjectID
	cleanCursor types.ObjectID
	nextOID     types.ObjectID
	window      time.Duration
	// policies maps object IDs to their retention policies; key 0 holds
	// the drive-wide default (DESIGN.md §16). Mutated only under the
	// exclusive drive lock; read under the shared lock. The table is
	// persisted through the PolicyTable reserved object, so both
	// recovery paths rebuild it for free.
	policies map[types.ObjectID]types.Policy
	// spaceReserve is the free-segment floor reserved for the
	// cleaner: client mutations are refused (ErrNoSpace) once the
	// allocator drops to it, so compaction and the checkpoint barrier
	// always have room to reclaim space. Set at open, read-only after.
	spaceReserve int64
	usage        *segUsage   // atomic counters; no lock needed
	cache        *blockCache // internally locked
	recon        *reconCache // internally locked (leaf), like cache
	closed       bool

	// Lock-free reconstruction-walk counters; the walks deliberately
	// hold no lock statsMu could pair with.
	landmarkHits atomic.Int64
	walkEntries  atomic.Int64

	// Background-scrubber state (scrub.go). scrubStop is non-nil while
	// the scrubber goroutine runs; Close signals it and waits.
	scrubPasses atomic.Int64
	scrubBlocks atomic.Int64
	scrubMu     sync.Mutex // guards scrubStop/scrubDone/scrubCursor
	scrubStop   chan struct{}
	scrubDone   chan struct{}
	scrubCursor int64 // next segment to verify; advisory, never durable

	// lruMu guards objLRU mutation. The list is traversed without lruMu
	// only under the exclusive drive lock (evictColdLocked), which
	// excludes every MoveToFront caller.
	lruMu  sync.Mutex
	objLRU *list.List // front = hottest; values are *object

	// logMu serializes multi-call journal-block sequences: several
	// objects' 512-byte sectors share each staged journal block, and
	// both sector placement and head-sector merges read-modify-write
	// shared blocks. jblockRef counts in-chain journal sectors per log
	// block (a block is freed when its count reaches zero); jstage is
	// the journal block currently accepting new sectors.
	logMu      sync.Mutex
	jblockRef  map[seglog.BlockAddr]int
	jstageAddr seglog.BlockAddr
	jstageUsed int

	// auditMu guards the audit pipeline. It is taken while holding
	// Drive.mu (either mode) and object locks, never the reverse.
	auditMu     sync.Mutex
	auditBlk    []byte         // the audit block being filled: header room, then the buffered records
	auditPend   []auditPending // per record in auditBlk
	auditRaw    []byte         // request capture, rebuilt for every record
	auditSeq    uint64
	auditBlocks []auditBlockRef

	// Commit-ticket state for group commit (DESIGN.md §11). Every Sync
	// takes the next ticket (commitSeq); one leader at a time flushes
	// the dirty set and forces the log for every ticket taken before
	// its batch closed, then advances commitDone. Followers whose
	// ticket is covered return without touching the device. commitMu
	// is a leaf: it is never held across object locks, logMu, or any
	// log call — only across the ticket bookkeeping and the wait.
	commitMu   sync.Mutex
	commitCond *sync.Cond
	commitSeq  int64 // last issued commit ticket
	commitDone int64 // every ticket ≤ commitDone is durable
	committing bool  // a leader's flush is in flight

	// dirtyMu guards dirtyObjs, the set of objects with pending
	// journal entries; Sync flushes exactly this set instead of
	// walking the whole object map. Leaf lock, taken under o.mu.
	// Invariant: an object with len(pending) > 0 is always in the set
	// (the converse may briefly not hold; flushers re-check pending
	// under o.mu).
	dirtyMu   sync.Mutex
	dirtyObjs map[types.ObjectID]*object

	// statsMu guards stats. Cache hit/miss counters live inside the
	// block cache and are merged in GetStats.
	statsMu sync.Mutex
	stats   Stats

	thr *throttle.Throttle

	loaded atomic.Int32 // objects with a materialized inode
	// pendingFree holds segments emptied by the cleaner; they return
	// to the allocator only after the next object-map checkpoint, so a
	// crash can never find the checkpointed state referencing a reused
	// segment. Touched only under the exclusive drive lock.
	pendingFree map[int64]bool

	// Transient recovery state (DESIGN.md §14), cleared before Open
	// returns. recSnapVer is each object's newest version at the
	// checkpoint: everything at or below it was durable then.
	// recTouched holds the objects whose chains the roll-forward scan
	// advanced: on the segment index (recBase) only they, and objects
	// whose head sat in the segment open at the checkpoint, can have
	// moved a counter.
	recSnapVer map[types.ObjectID]uint64
	recTouched map[types.ObjectID]bool
	// recSectors holds every journal sector the roll-forward scan
	// decoded, as vetting left it; readJSector serves them, so the usage
	// rebuild's chain walks neither read nor decode the tail again.
	recSectors map[journal.SectorAddr]recSector
	// recSumCover caches each probed segment's durable-summary entry
	// count. The usage rebuild counts only summary-listed blocks, so a
	// tail block whose payload survived a crash but whose summary write
	// did not is referenced by chains yet never counted.
	recSumCover map[int64]int
	// recDrop is the per-object poison floor: the lowest version whose
	// journal entry named un-durable blocks during replay. That entry
	// and everything at or above its version are an unacknowledged
	// tail, truncated out of the chain so the recovered state is an
	// exact prefix of the op sequence. Zero (absent) means unpoisoned.
	recDrop map[types.ObjectID]uint64
	// recImages holds the inode images of the segment index the open
	// took (segIndex.images); loadInode takes each once.
	recImages map[types.ObjectID][]byte
	// recIndex is the segment index the checkpoint carried, if it
	// decoded: it says which segments were sealed then (sealedAtCheckpoint).
	recIndex  *segIndex
	recReplay int64 // journal entries examined during this recovery
	// recErr latches the first device error recCovered met. Its callers
	// want yes or no, and "the device would not say" must never pass for
	// "not covered": nothing is truncated on the strength of it, and the
	// open fails with it.
	recErr error
}

type auditBlockRef struct {
	addr     seglog.BlockAddr
	firstSeq uint64
	lastTime types.Timestamp
}

// Format initializes dev as an empty S4 drive and returns it opened.
func Format(dev disk.Device, opts Options) (*Drive, error) {
	opts.fill(dev)
	if err := seglog.Format(dev, seglog.Config{
		SegBlocks:        opts.SegBlocks,
		CheckpointBlocks: opts.CheckpointBlocks,
	}); err != nil {
		return nil, err
	}
	return Open(dev, opts)
}

// Open attaches to a formatted device, performing crash recovery if the
// log extends past the last checkpoint.
func Open(dev disk.Device, opts Options) (*Drive, error) {
	opts.fill(dev)
	log, err := seglog.Open(dev)
	if err != nil {
		return nil, err
	}
	d := &Drive{
		dev:         dev,
		log:         log,
		clk:         opts.Clock,
		opts:        opts,
		objects:     make(map[types.ObjectID]*object),
		policies:    make(map[types.ObjectID]types.Policy),
		objLRU:      list.New(),
		nextOID:     types.FirstUserObject,
		window:      opts.Window,
		usage:       newSegUsage(log.NumSegments()),
		cache:       newBlockCache(opts.BlockCacheBytes),
		recon:       newReconCache(opts.reconCacheBytes),
		jblockRef:   make(map[seglog.BlockAddr]int),
		pendingFree: make(map[int64]bool),
		dirtyObjs:   make(map[types.ObjectID]*object),
		thr:         throttle.New(*opts.throttleCfg),
	}
	d.commitCond = sync.NewCond(&d.commitMu)
	// A sealed segment's journal blocks enter the cache from the seal's
	// own image, so ageing's first walk through them reads nothing.
	log.SetSealSink(d.cache.put)
	// ~1.5% of the log, clamped so toy-sized test logs keep one spare
	// segment and huge devices don't strand space.
	d.spaceReserve = log.NumSegments() / 64
	if d.spaceReserve < 1 {
		d.spaceReserve = 1
	} else if d.spaceReserve > 64 {
		d.spaceReserve = 64
	}
	d.stats.Ops = make(map[types.Op]int64)
	// Wall clock, not d.clk: OpenDuration measures real recovery work
	// (the restart bench compares it across index on/off), and the
	// virtual clock does not advance during recovery.
	openStart := time.Now()
	if err := d.recover(); err != nil {
		return nil, err
	}
	d.stats.OpenDuration = time.Since(openStart)
	d.stats.RecoveryReplayEntries = d.recReplay
	if _, ok := d.objects[types.PartitionTable]; !ok {
		// Fresh drive: create the partition table object, admin-owned,
		// world-readable (PList/PMount are mediated by the drive).
		d.createObjectLocked(types.PartitionTable, types.AdminCred(), []types.ACLEntry{
			{User: types.AdminUser, Perm: types.PermAll},
			{User: types.EveryoneID, Perm: types.PermRead},
		}, nil)
	}
	return d, nil
}

// Close flushes all state and detaches.
func (d *Drive) Close() error {
	d.StopScrubber()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	if err := d.checkpointLocked(); err != nil {
		return err
	}
	d.closed = true
	return nil
}

// Window returns the current detection window.
func (d *Drive) Window() time.Duration {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.window
}

// Now returns the drive clock's current timestamp.
func (d *Drive) Now() types.Timestamp { return vclock.TS(d.clk) }

// addObjectLocked enters o in the object table. IDs are mostly handed
// out in rising order, so the ordered insert is usually an append.
// Caller holds the exclusive drive lock.
func (d *Drive) addObjectLocked(o *object) {
	d.objects[o.id] = o
	i := len(d.objOrder)
	if i > 0 && d.objOrder[i-1] > o.id {
		i, _ = slices.BinarySearch(d.objOrder, o.id)
	}
	d.objOrder = slices.Insert(d.objOrder, i, o.id)
}

var errStopIteration = errors.New("stop")

// ---- Permission checks ----

func (d *Drive) checkPerm(cred types.Cred, in *Inode, need types.Perm) error {
	if cred.Admin {
		return nil
	}
	if in.PermFor(cred.User).Has(need) {
		return nil
	}
	return types.ErrPerm
}

// errIf returns err when bad holds: an op's own argument check, in the
// form the door and the create path take it.
func errIf(bad bool, err error) error {
	if bad {
		return err
	}
	return nil
}

// adminGate is the one rule for the whole-drive administrative ops
// (types.Op.Admin: Flush, FlushO, SetWindow, AuditRead, Scrub,
// SetPolicy): a closed drive first, then administrative credentials. The
// op audits whatever it ends with, a refusal here included. Caller holds
// the drive lock in either mode.
func (d *Drive) adminGate(cred types.Cred, op types.Op) error {
	switch {
	case d.closed:
		return types.ErrDriveStopped
	case op.Admin() && !cred.Admin:
		return types.ErrAdminOnly
	}
	return nil
}

// mutateShared is the one door into an object: Write, Append, Truncate,
// SetAttr, SetACL, Delete and Revert enter through it and no other way.
// It runs the checks each of them owes in one order: a closed drive, the
// op's own argument check (argErr), a reserved ID, then lookup and load
// under the exclusive object lock. Then pre, when the op has one (Write
// and Append resolve where the data lands; Revert takes its own
// two-version permission step there and passes need == 0, which skips
// the next two checks), a deleted object and need on the live version,
// and the throttle. pre may report that nothing is left to do — an empty
// write, a Revert to the version already current — and then neither the
// throttle nor apply runs. apply makes the change under the same
// exclusive hold. Neither closure escapes, so entering allocates
// nothing. Caller holds the shared drive lock.
func (d *Drive) mutateShared(cred types.Cred, id types.ObjectID, argErr error, need types.Perm,
	pre func(o *object) (skip bool, err error), apply func(o *object) error) error {
	if d.closed {
		return types.ErrDriveStopped
	}
	if argErr != nil {
		return argErr
	}
	if err := checkReserved(cred, id); err != nil {
		return err
	}
	o, err := d.getObjectShared(id)
	if err != nil {
		return err
	}
	if err := d.lockObjectWrite(o); err != nil {
		return err
	}
	defer o.mu.Unlock()
	skip := false
	if pre != nil {
		if skip, err = pre(o); err != nil {
			return err
		}
	}
	if need != 0 {
		if o.ino.Deleted {
			return types.ErrNoObject
		}
		if err := d.checkPerm(cred, o.ino, need); err != nil {
			return err
		}
	}
	if skip {
		return nil
	}
	if err := d.throttle(cred); err != nil {
		return err
	}
	return apply(o)
}

// mint stamps e as o's next version, made by cred at now, and returns
// it: the one place a version number is handed out. Flush's merge
// entries and landmark entries are not versions of their own; they
// share the version of the entry they stand beside. Caller holds o.mu
// exclusively (plus the shared drive lock) or the exclusive drive lock.
func (o *object) mint(cred types.Cred, now types.Timestamp, e *journal.Entry) *journal.Entry {
	e.Version, e.Time, e.User, e.Client = o.nextVersion, now, cred.User, cred.Client
	o.nextVersion++
	return e
}

// checkReserved rejects direct client mutation of drive-owned objects.
func checkReserved(cred types.Cred, id types.ObjectID) error {
	if id == types.AuditObject {
		return types.ErrReadOnly
	}
	if id == types.PartitionTable && !cred.Admin {
		return types.ErrReadOnly
	}
	if id == types.PolicyTable && !cred.Admin {
		return types.ErrReadOnly
	}
	return nil
}

// ---- Object lookup / loading ----

// getObject looks up an object and materializes its inode. Caller
// holds the exclusive drive lock (per-object paths use getObjectShared
// plus lockObjectRead/lockObjectWrite instead).
func (d *Drive) getObject(id types.ObjectID) (*object, error) {
	o, err := d.getObjectShared(id)
	if err != nil {
		return nil, err
	}
	return o, d.loadInode(o)
}

// getObjectShared looks up an object under the shared drive lock. The
// returned object's inode may be unloaded; lockObjectRead or
// lockObjectWrite materializes it under the object lock.
func (d *Drive) getObjectShared(id types.ObjectID) (*object, error) {
	o, ok := d.objects[id]
	if !ok {
		return nil, types.ErrNoObject
	}
	d.lruMu.Lock()
	d.objLRU.MoveToFront(o.lruEl)
	d.lruMu.Unlock()
	return o, nil
}

// lockObjectRead takes o.mu shared with the inode materialized; on
// success the caller must o.mu.RUnlock. Caller holds the shared drive
// lock, which excludes eviction, so a loaded inode stays loaded.
func (d *Drive) lockObjectRead(o *object) error {
	for {
		o.mu.RLock()
		if o.ino != nil {
			return nil
		}
		o.mu.RUnlock()
		o.mu.Lock()
		err := d.loadInode(o)
		o.mu.Unlock()
		if err != nil {
			return err
		}
	}
}

// lockObjectWrite takes o.mu exclusively with the inode materialized;
// on success the caller must o.mu.Unlock. Caller holds the shared
// drive lock.
func (d *Drive) lockObjectWrite(o *object) error {
	o.mu.Lock()
	if err := d.loadInode(o); err != nil {
		o.mu.Unlock()
		return err
	}
	return nil
}

// loadInode materializes o.ino. During recovery that is first the
// image the segment index carried for o: the inode as it stood at the
// checkpoint, which the roll-forward scan redoes the tail on top of
// (DESIGN.md §14.2). Otherwise it is from o's checkpoint if one exists,
// or from the journal chain — journal-based metadata means the journal
// alone can rebuild any object whose chain still reaches its creation
// (§4.2.2). The chain is walked backward only as far as the newest live
// landmark whose image holds this object at the entry's version: that
// image is the replay of everything below it (DESIGN.md §12.1), so only
// the entries above it are redone, and it rides the entry the walk has
// just decoded. A chain with no such landmark — short,
// CheckpointEvery < 0, every image spoiled — is walked to its
// EntCreate, which is the same walk not stopping. The landmark is found
// in the chain, not in o.landmarks: recovery loads inodes before it has
// an index to trust. Caller holds o.mu exclusively or the exclusive
// drive lock.
func (d *Drive) loadInode(o *object) error {
	if o.ino != nil {
		return nil
	}
	if in := d.takeRecImage(o); in != nil {
		o.ino = in
		d.loaded.Add(1)
		return nil
	}
	if o.inodeRoot == seglog.NilAddr {
		if o.pruned {
			return fmt.Errorf("core: %v has a pruned chain and no checkpoint: %w", o.id, types.ErrCorrupt)
		}
		// Pointers into the per-sector slices the walk decoded, newest
		// first: copying ~250-byte entries into one growing slice cost
		// more than decoding them.
		var redo []*journal.Entry
		var in *Inode
		err := d.walkChain(o, o.jhead, func(_, _ journal.SectorAddr, sec []journal.Entry) (bool, error) {
			for i := len(sec) - 1; i >= 0; i-- {
				e := &sec[i]
				if e.Type != journal.EntCheckpoint {
					redo = append(redo, e)
				} else if o.landmarkLive(e.Version) {
					if in = landmarkImage(o.id, e); in != nil {
						return true, nil
					}
				}
			}
			return false, nil
		})
		if err != nil {
			return err
		}
		if in == nil {
			n := len(redo) - 1
			if n < 0 || redo[n].Type != journal.EntCreate {
				return fmt.Errorf("core: %v journal does not reach creation: %w", o.id, types.ErrCorrupt)
			}
			in, redo = newInode(o.id, redo[n].Time, nil), redo[:n]
		}
		for i := len(redo) - 1; i >= 0; i-- {
			in.redo(redo[i])
		}
		o.ino = in
		d.loaded.Add(1)
		return nil
	}
	root := make([]byte, seglog.BlockSize)
	if err := d.log.Read(o.inodeRoot, root); err != nil {
		return err
	}
	in, _, err := decodeInodeRoot(d.log, root)
	if err != nil {
		return err
	}
	o.ino = in
	d.loaded.Add(1)
	return nil
}

// journalComplete reports whether o's entire state is reconstructible
// from its retained journal chain alone (no checkpoint required).
func (o *object) journalComplete() bool {
	return o.inodeRoot == seglog.NilAddr && !o.pruned && len(o.pending) == 0
}

// evictColdLocked checkpoints and drops inodes beyond the object cache
// limit, coldest first. Unflushed journal entries are flushed so the
// checkpoint is complete and the inode can be dropped safely. Caller
// holds the exclusive drive lock.
func (d *Drive) evictColdLocked() error {
	if int(d.loaded.Load()) <= d.opts.ObjectCacheCount {
		return nil
	}
	for el := d.objLRU.Back(); el != nil && int(d.loaded.Load()) > d.opts.ObjectCacheCount; {
		prev := el.Prev()
		o := el.Value.(*object)
		if o.ino != nil {
			if err := d.flushJournalLocked(o); err != nil {
				return err
			}
			if err := d.checkpointObjectLocked(o); err != nil {
				return err
			}
			o.ino = nil
			o.chain, o.chainAged = nil, 0
			d.loaded.Add(-1)
		}
		el = prev
	}
	return nil
}

// releaseShared ends a per-object operation: it releases the shared
// drive lock, then trims the object cache, which the operation may have
// grown by materializing an inode — eviction touches other objects and
// so needs the exclusive lock. It returns the operation's err, or the
// trim's if the operation succeeded.
func (d *Drive) releaseShared(err error) error {
	d.mu.RUnlock()
	if int(d.loaded.Load()) <= d.opts.ObjectCacheCount {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return err
	}
	if eerr := d.evictColdLocked(); err == nil {
		err = eerr
	}
	return err
}

// ---- Journal machinery ----

// appendEntry applies e to the object's current inode and queues it for
// the next journal-sector flush. It also maintains usage accounting for
// the block pointers the entry deprecates. Caller holds o.mu
// exclusively (plus the shared drive lock) or the exclusive drive lock.
func (d *Drive) appendEntry(o *object, e *journal.Entry) {
	// Deprecate overwritten/removed blocks into the history pool.
	// DeltaMask'd slots hold packed-slot references, not addresses —
	// their packed block was already born-and-deprecated by the
	// conversion; Nil slots (retention skips) have nothing to keep.
	for i, old := range e.Old {
		if old == seglog.NilAddr || e.DeltaMask&(1<<uint(i)) != 0 {
			continue
		}
		d.usage.deprecate(segOf(d.log, old))
		delete(o.birth, old)
	}
	if e.Type == journal.EntWrite {
		// Record each fresh block's provenance; the delta converter
		// later needs to prove no landmark references an address it is
		// about to free (DESIGN.md §16).
		if o.birth == nil {
			o.birth = make(map[seglog.BlockAddr]blockBirth)
		}
		for _, a := range e.New {
			if a != seglog.NilAddr {
				o.birth[a] = blockBirth{ver: e.Version, t: e.Time}
			}
		}
	}
	if e.Type == journal.EntDelete {
		// Deletion deprecates every block of the final version.
		for _, a := range o.ino.blocks {
			d.usage.deprecate(segOf(d.log, a))
		}
	}
	if e.Type == journal.EntRevive {
		// Revival is deletion undone: the final version's blocks return
		// from the history pool to live service.
		for _, a := range o.ino.blocks {
			d.usage.undeprecate(segOf(d.log, a))
		}
	}
	o.ino.redo(e)
	o.pending = append(o.pending, e)
	d.markDirty(o)
	if birth := e.Time + types.Timestamp(d.effectiveWindow(o.id)); o.nextAge == 0 || birth < o.nextAge {
		// This entry becomes ageable once it leaves the window; any
		// cleaner visit before then would be wasted, and a fully-aged
		// object parked at "never" must wake when new history arrives.
		o.nextAge = birth
	}
	d.statsMu.Lock()
	d.stats.VersionsMade++
	d.statsMu.Unlock()
	if d.opts.Conventional {
		// Ablation: versioning file systems without journal-based
		// metadata write fresh metadata per update (§4.2.2, Fig. 2).
		_ = d.checkpointObjectLocked(o)
	}
	d.maybeEmitLandmarkLocked(o, e)
	if len(o.pending) >= pendingFlushEntries {
		_ = d.flushJournalLocked(o)
	}
}

// maybeEmitLandmarkLocked writes a landmark checkpoint entry after
// every CheckpointEvery real entries on a hot chain (DESIGN.md §12.1):
// an EntCheckpoint journal entry carrying the full inode image, so
// back-in-time reconstruction can anchor mid-chain instead of undoing
// from the live head. It lives as long as its journal sector and ages
// out of the window with the entries around it. An image is also what
// loadInode anchors at, so it must equal the replay of the chain below
// it on every image a crash can leave: none is emitted while a
// relocation of the object's data awaits its barrier checkpoint.
// Landmarks are an optimization: an inode whose entry would not fit one
// journal sector alone gets none.
// Caller holds o.mu exclusively (plus the shared drive lock) or the
// exclusive drive lock; e is the just-appended triggering entry.
func (d *Drive) maybeEmitLandmarkLocked(o *object, e *journal.Entry) {
	if d.opts.CheckpointEvery <= 0 || e.Type == journal.EntCheckpoint {
		return
	}
	o.sinceLandmark++
	if o.sinceLandmark < d.opts.CheckpointEvery || o.relocPending {
		// Withheld, not forgotten: the count keeps running, so the first
		// entry after the barrier emits the landmark that was due.
		return
	}
	o.sinceLandmark = 0
	// The entry shares the trigger's version and time, so it ages out of
	// the window at the same instant.
	lm := &journal.Entry{
		Type: journal.EntCheckpoint, Version: o.ino.Version, Time: e.Time,
		User: e.User, Client: e.Client, Image: o.ino.image(),
	}
	if lm.Image == nil || len(lm.Encode(nil)) > journal.SectorCapacity {
		return // too large for a sector alone: the full walk serves it
	}
	// Appended directly to pending (not through appendEntry): a landmark
	// is not a version transition.
	o.pending = append(o.pending, lm)
	o.landmarks = append(o.landmarks, landmark{time: e.Time, version: o.ino.Version})
	// A landmark version is retained in every policy mode: it is the
	// anchor deep reads reconstruct from, so retention may never thin it.
	if o.ino.Version > o.retainedVer {
		o.retainedVer = o.ino.Version
	}
}

// landmarkOf returns the index entry for checkpoint entry e, or nil when
// e is not a checkpoint entry or is not indexed. Caller holds o.mu
// exclusively (or the exclusive drive lock) if it writes through the
// result.
func (o *object) landmarkOf(e *journal.Entry) *landmark {
	if e.Type != journal.EntCheckpoint {
		return nil
	}
	for i := range o.landmarks {
		if ln := &o.landmarks[i]; ln.version == e.Version && ln.time == e.Time {
			return ln
		}
	}
	return nil
}

// placeLandmarks records sector sa as the chain position of every
// indexed checkpoint entry among entries: they just reached a flushed
// sector, or the sector holding them just moved. Only flushed landmarks
// can anchor reconstruction walks. Caller holds o.mu exclusively (or
// the exclusive drive lock).
func (o *object) placeLandmarks(entries []*journal.Entry, sa journal.SectorAddr) {
	for _, e := range entries {
		if ln := o.landmarkOf(e); ln != nil {
			ln.sector = sa
		}
	}
}

// landmarkLive reports whether a checkpoint entry of this version is
// above both of o's floors — the one rule for what the landmark index
// holds. Aging raises floorVersion, relocation of a data block raises
// lmFloor; both are persisted in the object map, so a restart never
// re-decides.
func (o *object) landmarkLive(version uint64) bool {
	return version > o.floorVersion && version > o.lmFloor
}

// landmarkImage returns the inode image checkpoint entry e carries if it
// decodes to object id at exactly e's version, and nil if it does not:
// such an entry is simply not a landmark — a history read falls back to
// the undo walk, a load to a longer replay. The one decode-and-check
// behind the load anchor, history reads, recovery's adoption and the
// checkers; it reads nothing, and the caller owns the image.
func landmarkImage(id types.ObjectID, e *journal.Entry) *Inode {
	in, _, err := decodeInodeRoot(nil, e.Image)
	if err != nil || in.ID != id || in.Version != e.Version {
		return nil
	}
	return in
}

// sortLandmarks restores the index's ascending-by-time order after a
// chain walk appended entries newest-first.
func sortLandmarks(ls []landmark) {
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].time != ls[j].time {
			return ls[i].time < ls[j].time
		}
		return ls[i].version < ls[j].version
	})
}

// dropLandmarksBelowFloor removes the landmarks that a raised floor has
// killed from the index — a landmark entry carries its trigger's
// version, so it dies with the entries around it, and its image with
// its sector. Caller holds the exclusive drive lock.
func (o *object) dropLandmarksBelowFloor() {
	o.landmarks = slices.DeleteFunc(o.landmarks, func(ln landmark) bool {
		return !o.landmarkLive(ln.version)
	})
}

// retireLandmarks kills every landmark o has by raising the landmark
// floor to the current version — used when the images stop describing
// the object (a data block moved, Flush rewrote the chain) or the
// object is reaped. Caller holds the exclusive drive lock, o.ino loaded.
func (d *Drive) retireLandmarks(o *object) {
	o.lmFloor = o.ino.Version
	o.dropLandmarksBelowFloor()
}

// markDirty records that o has pending journal entries. Callers hold
// o.mu exclusively (or the exclusive drive lock), which serializes an
// object's dirty-set transitions.
func (d *Drive) markDirty(o *object) {
	d.dirtyMu.Lock()
	d.dirtyObjs[o.id] = o
	d.dirtyMu.Unlock()
}

// markClean removes o from the dirty set. Callers hold o.mu
// exclusively (or the exclusive drive lock) and have verified that
// o.pending is empty.
func (d *Drive) markClean(o *object) {
	d.dirtyMu.Lock()
	delete(d.dirtyObjs, o.id)
	d.dirtyMu.Unlock()
}

// walkChain visits o's retained journal chain newest sector first, from
// the sector at from (o.jhead for the whole chain) through o.jtail
// (sectors older than jtail were freed by the cleaner). fn sees each
// sector's address, its backward link and its entries oldest-first, and
// may stop the walk early. A sector that does not decode, or that
// belongs to another object, ends the walk with an error. Caller holds
// the exclusive drive lock or o.mu exclusively: unlike the snapshot
// walker of history.go, this reads the object's live chain anchors.
func (d *Drive) walkChain(o *object, from journal.SectorAddr, fn func(addr, prev journal.SectorAddr, entries []journal.Entry) (stop bool, err error)) error {
	return d.walkSectors(o.id, from, o.jtail, fn)
}

// walkSectors is journal.WalkSectors over id's sectors read through
// readJSector, one scratch buffer per walk: the chain walk behind both
// walkChain and the snapshot walker.
func (d *Drive) walkSectors(id types.ObjectID, from, tail journal.SectorAddr, fn func(addr, prev journal.SectorAddr, entries []journal.Entry) (stop bool, err error)) error {
	var scratch []byte
	return journal.WalkSectors(func(sa journal.SectorAddr) (journal.SectorAddr, []journal.Entry, error) {
		return d.readJSector(id, sa, &scratch)
	}, from, tail, fn)
}

// readJSector fetches and decodes id's journal sector at sa: the one way
// the running drive reads a journal sector (recovery's roll-forward scan
// probes whole blocks before any of this state exists). A block of a
// sealed segment is immutable, so it is served from the block cache and
// decoded straight out of the shared image — decoded entries never alias
// the bytes they came from — and a miss fills the cache with the buffer
// seglog.Read verified into. A block of the open segment is still being
// rewritten in place by head merges and sector placement (several
// objects share it), so it is read into *scratch, the caller's per-walk
// buffer, and never cached. The openness test comes before the read: a
// block found sealed can never be rewritten again, so no RewriteRange
// can race the fill, while testing afterwards could cache an image read
// just before the last rewrite. While recovery runs, a sector the
// roll-forward scan decoded is served from recSectors instead, entries
// shared with every walk that meets it: callers only read them. A sector
// that does not decode, or is not id's, is an error. Needs no lock
// beyond whatever keeps sa in a chain.
func (d *Drive) readJSector(id types.ObjectID, sa journal.SectorAddr, scratch *[]byte) (prev journal.SectorAddr, entries []journal.Entry, err error) {
	if r, ok := d.recSectors[sa]; ok && r.id == id {
		return r.prev, r.entries, nil
	}
	blk := sa.Block()
	var img []byte
	if d.log.InOpenSegment(blk) {
		if *scratch == nil {
			*scratch = make([]byte, seglog.BlockSize)
		}
		img = *scratch
		err = d.log.Read(blk, img)
	} else if img = d.cache.getJournal(blk); img == nil {
		img = make([]byte, seglog.BlockSize)
		if err = d.log.Read(blk, img); err == nil {
			d.cache.put(blk, img)
		}
	}
	if err != nil {
		return 0, nil, fmt.Errorf("core: %v journal sector %d: %w", id, sa, err)
	}
	slot := sa.Slot()
	obj, prev, entries, ok, err := journal.DecodeSector(img[slot*journal.SectorSize : (slot+1)*journal.SectorSize])
	switch {
	case err != nil:
		return 0, nil, fmt.Errorf("core: %v journal sector %d: %w", id, sa, err)
	case !ok:
		return 0, nil, fmt.Errorf("core: %v journal sector %d is empty: %w", id, sa, types.ErrCorrupt)
	case obj != id:
		return 0, nil, fmt.Errorf("core: %v journal sector %d owned by %v: %w", id, sa, obj, types.ErrCorrupt)
	}
	return prev, entries, nil
}

// unrefJSector drops one in-chain sector reference; the shared journal
// block is released when its last sector goes. It acquires logMu, so
// the caller must not hold it.
func (d *Drive) unrefJSector(sa journal.SectorAddr) {
	blk := sa.Block()
	d.logMu.Lock()
	d.jblockRef[blk]--
	free := d.jblockRef[blk] <= 0
	if free {
		delete(d.jblockRef, blk)
	}
	d.logMu.Unlock()
	if free {
		d.usage.freeLive(segOf(d.log, blk))
		d.cache.drop(blk)
	}
}

// placeSectorLocked writes one encoded journal sector into the staging
// journal block, starting a fresh block when the current one is full or
// sealed. Up to journal.SectorsPerBlock sectors — usually belonging to
// different objects — share each block, which is what keeps
// journal-based metadata compact (§4.2.2). A fresh block is appended as
// its one sector, so its summary Len covers the sectors filled, which
// RewriteRange raises as more land, and a verified read of the sealed
// block fetches no more (DESIGN.md §15.2). Caller holds logMu.
func (d *Drive) placeSectorLocked(sec []byte, newest types.Timestamp) (journal.SectorAddr, error) {
	pad := make([]byte, journal.SectorSize)
	copy(pad, sec)
	if d.jstageAddr != seglog.NilAddr && d.jstageUsed < journal.SectorsPerBlock {
		// RewriteRange re-checks openness under the log mutex: a
		// concurrent appender may seal the staging block's segment at any
		// time, in which case we fall through and start a fresh block.
		slot := d.jstageUsed
		ok, err := d.log.RewriteRange(d.jstageAddr, slot*journal.SectorSize, pad)
		if err != nil {
			return 0, err
		}
		if ok {
			d.jstageUsed++
			d.jblockRef[d.jstageAddr]++
			return journal.MakeSectorAddr(d.jstageAddr, slot), nil
		}
	}
	addr, err := d.log.Append(seglog.KindJournal, types.NoObject, 0, newest, pad)
	if err != nil {
		return 0, err
	}
	d.usage.liveBorn(segOf(d.log, addr))
	d.jstageAddr, d.jstageUsed = addr, 1
	d.jblockRef[addr]++
	return journal.MakeSectorAddr(addr, 0), nil
}

// flushJournalLocked packs o.pending into 512-byte journal sectors and
// links them onto the object's backward chain. While the head sector
// still sits in the open segment and has room, new entries are merged
// into it in place, so a busy object accumulates one packed sector
// rather than one per sync. Caller holds o.mu exclusively (plus the
// shared drive lock) or the exclusive drive lock; logMu is acquired
// here because the head merge and sector placement read-modify-write
// journal blocks shared with other objects.
func (d *Drive) flushJournalLocked(o *object) error {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	if len(o.pending) > 0 && o.jhead != journal.NilSector && d.log.InOpenSegment(o.jhead.Block()) {
		prev, existing := o.jheadPrev, o.jheadEntries
		if existing == nil {
			// Cold head (recovery, relocation): read it once — walkChain
			// refuses a sector that is not o's — and successful merges
			// below keep the decoded image current from then on.
			err := d.walkChain(o, o.jhead, func(_, p journal.SectorAddr, entries []journal.Entry) (bool, error) {
				prev, existing = p, entries
				return true, nil
			})
			if err != nil {
				return err
			}
		}
		merged := make([]*journal.Entry, 0, len(existing)+len(o.pending))
		for i := range existing {
			merged = append(merged, &existing[i])
		}
		sec, fit := journal.FitSector(o.id, prev, append(merged, o.pending...))
		if n := fit - len(existing); n > 0 {
			// RewriteRange re-checks openness atomically: data-block
			// appends run outside logMu and may seal the head's segment
			// between the check above and here. On ok=false the merge is
			// abandoned and pending drains through fresh sectors below.
			pad := make([]byte, journal.SectorSize)
			copy(pad, sec)
			ok, err := d.log.RewriteRange(o.jhead.Block(), o.jhead.Slot()*journal.SectorSize, pad)
			if err != nil {
				return err
			}
			if ok {
				o.placeLandmarks(o.pending[:n], o.jhead)
				for i := 0; i < n; i++ {
					existing = append(existing, *o.pending[i])
				}
				o.jheadPrev, o.jheadEntries = prev, existing
				o.pending = append(o.pending[:0], o.pending[n:]...)
			}
		}
	}
	for len(o.pending) > 0 {
		sec, n := journal.FitSector(o.id, o.jhead, o.pending)
		if n == 0 {
			return fmt.Errorf("core: journal entry larger than a sector: %w", types.ErrTooLarge)
		}
		sa, err := d.placeSectorLocked(sec, o.pending[n-1].Time)
		if err != nil {
			return err
		}
		o.placeLandmarks(o.pending[:n], sa)
		ents := make([]journal.Entry, n)
		for i := 0; i < n; i++ {
			ents[i] = *o.pending[i]
		}
		o.jheadPrev, o.jheadEntries = o.jhead, ents
		if o.jhead == journal.NilSector || o.chain != nil {
			// A chain's first sector starts its index; a built one grows.
			o.chain = append(o.chain, sa)
		}
		o.jhead = sa
		if o.jtail == journal.NilSector {
			o.jtail = sa
		}
		o.pending = append(o.pending[:0], o.pending[n:]...)
	}
	d.markClean(o)
	return nil
}

// checkpointObjectLocked writes a full metadata copy of o to the log and
// releases the superseded checkpoint blocks (journal-based metadata
// makes stale checkpoints disposable; only journal aging prunes
// history, §4.2.2). It holds the one rule for when an inode block is
// written: o's chain cannot rebuild it and its block is stale. The
// barrier and eviction pass it every object; compaction zeroes
// cpVersion to force one. Caller holds o.mu exclusively (plus the
// shared drive lock) or the exclusive drive lock.
func (d *Drive) checkpointObjectLocked(o *object) error {
	if o.ino == nil || o.journalComplete() || o.cpVersion == o.ino.Version && o.inodeRoot != seglog.NilAddr {
		return nil
	}
	cb, err := o.ino.buildCheckpoint()
	if err != nil {
		return err
	}
	vec := make([]seglog.VecEntry, 0, len(cb.overflow))
	for _, chunk := range cb.overflow {
		vec = append(vec, seglog.VecEntry{Key: o.ino.Version, Time: o.ino.ModTime, Data: chunk})
	}
	overAddrs, err := d.log.AppendVec(seglog.KindInode, o.id, vec...)
	if err != nil {
		return err
	}
	for _, a := range overAddrs {
		d.usage.liveBorn(segOf(d.log, a))
	}
	root := cb.finishRoot(overAddrs)
	rootAddr, err := d.log.Append(seglog.KindInode, o.id, o.ino.Version, o.ino.ModTime, root)
	if err != nil {
		return err
	}
	d.usage.liveBorn(segOf(d.log, rootAddr))
	// Free the superseded checkpoint immediately.
	for _, a := range o.cpBlocks {
		d.usage.freeLive(segOf(d.log, a))
		d.cache.drop(a)
	}
	o.inodeRoot = rootAddr
	o.cpBlocks = append(append([]seglog.BlockAddr(nil), overAddrs...), rootAddr)
	o.cpVersion = o.ino.Version
	return nil
}

// ---- Data block I/O ----

// readBlock returns the contents of the log block at addr (always
// BlockSize bytes; the log zero-pads short payloads). The cache and
// the segment log are internally synchronized, so no drive or object
// lock is needed beyond whatever keeps addr referenced.
func (d *Drive) readBlock(addr seglog.BlockAddr) ([]byte, error) {
	if b := d.cache.get(addr); b != nil {
		return b, nil
	}
	buf := make([]byte, seglog.BlockSize)
	if err := d.log.Read(addr, buf); err != nil {
		return nil, err
	}
	d.cache.put(addr, buf)
	return buf, nil
}

// ---- Public operations (Table 1) ----

// Create makes a new object. An empty ACL defaults to full rights for
// the creating user (including history recovery — the Recovery flag —
// which the user may later clear with SetACL, §3.4). Creation mutates
// the object map, so it is a whole-drive operation.
func (d *Drive) Create(cred types.Cred, acl []types.ACLEntry, attr []byte) (types.ObjectID, error) {
	return d.create(cred, 0, acl, attr)
}

// CreateWithID makes a new object under a caller-chosen ID. It exists
// for the shard router, which owns ID allocation so that the
// consistent-hash ring can place an object before any shard has seen
// it; a single drive allocating its own IDs would collide with its
// siblings. IDs below types.FirstUserObject are reserved (ErrInval),
// and an ID already in the object map — live or deleted — is refused
// (ErrExist) rather than silently reused: reuse would splice two
// objects' histories together and blind intrusion diagnosis. nextOID
// advances past the given ID so a later plain Create cannot collide.
func (d *Drive) CreateWithID(cred types.Cred, id types.ObjectID, acl []types.ACLEntry, attr []byte) error {
	_, err := d.create(cred, id, acl, attr)
	return err
}

// create is the one create path: Create passes id 0 and takes the next
// free ID, CreateWithID passes its own.
func (d *Drive) create(cred types.Cred, id types.ObjectID, acl []types.ACLEntry, attr []byte) (types.ObjectID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, types.ErrDriveStopped
	}
	err := errIf(id != 0 && id < types.FirstUserObject, types.ErrInval)
	if err == nil {
		err = errIf(len(acl) > types.MaxACLEntries || len(attr) > types.MaxAttrLen, types.ErrTooLarge)
	}
	if _, exists := d.objects[id]; err == nil && exists {
		err = types.ErrExist
	}
	if err == nil {
		err = d.throttle(cred)
	}
	if err != nil {
		d.auditOp(cred, types.OpCreate, id, 0, 0, "", err)
		return 0, err
	}
	if id == 0 {
		id = d.nextOID
	}
	d.nextOID = max(d.nextOID, id+1)
	if len(acl) == 0 {
		acl = []types.ACLEntry{{User: cred.User, Perm: types.PermAll}}
	}
	d.createObjectLocked(id, cred, acl, attr)
	d.auditOp(cred, types.OpCreate, id, 0, 0, "", nil)
	return id, d.evictColdLocked()
}

// createObjectLocked installs a new object and journals its birth,
// initial ACL, and initial attributes, so that crash recovery can
// rebuild the object entirely from the log. Caller holds the exclusive
// drive lock.
func (d *Drive) createObjectLocked(id types.ObjectID, cred types.Cred, acl []types.ACLEntry, attr []byte) *object {
	now := vclock.TS(d.clk)
	o := &object{id: id, ino: newInode(id, now, nil), nextVersion: 1}
	d.lruMu.Lock()
	o.lruEl = d.objLRU.PushFront(o)
	d.lruMu.Unlock()
	d.addObjectLocked(o)
	d.loaded.Add(1)
	d.appendEntry(o, o.mint(cred, now, &journal.Entry{Type: journal.EntCreate}))
	for i, e := range acl {
		d.appendEntry(o, o.mint(cred, now, &journal.Entry{Type: journal.EntSetACL, ACLIndex: uint8(i), NewACL: e}))
	}
	if len(attr) > 0 {
		d.appendEntry(o, o.mint(cred, now, &journal.Entry{Type: journal.EntSetAttr, NewAttr: append([]byte(nil), attr...)}))
	}
	return o
}

// Delete marks an object deleted. Its versions — including the final
// one — remain recoverable for the detection window.
func (d *Drive) Delete(cred types.Cred, id types.ObjectID) error {
	d.mu.RLock()
	err := d.mutateShared(cred, id, nil, types.PermDelete, nil, func(o *object) error {
		d.appendEntry(o, o.mint(cred, vclock.TS(d.clk), &journal.Entry{Type: journal.EntDelete, OldSize: o.ino.Size}))
		d.charge(cred, int64(o.ino.Size))
		return nil
	})
	d.auditOp(cred, types.OpDelete, id, 0, 0, "", err)
	return d.releaseShared(err)
}

// Read returns up to n bytes at off from the version of the object
// current at time at (TimeNowest for the live version). Reading any
// non-current version requires the Recovery flag or administrative
// credentials (§3.4).
//
// Reads of the live version hold the object lock shared, so they run
// in parallel with each other; history reads snapshot the object and
// reconstruct the old version with no object lock held at all — old
// versions are immutable by construction, so back-in-time reads never
// block writers (DESIGN.md §9).
func (d *Drive) Read(cred types.Cred, id types.ObjectID, off, n uint64, at types.Timestamp) ([]byte, error) {
	d.mu.RLock()
	data, err := d.readShared(cred, id, off, n, at)
	d.auditOp(cred, types.OpRead, id, off, n, "", err)
	return data, d.releaseShared(err)
}

// readShared implements Read. Caller holds the shared drive lock.
func (d *Drive) readShared(cred types.Cred, id types.ObjectID, off, n uint64, at types.Timestamp) ([]byte, error) {
	if d.closed {
		return nil, types.ErrDriveStopped
	}
	if n > types.MaxIO {
		return nil, types.ErrTooLarge
	}
	if id == types.AuditObject && !cred.Admin {
		return nil, types.ErrPerm
	}
	in, held, err := d.inodeForRead(cred, id, at)
	if err != nil {
		return nil, err
	}
	if held != nil {
		defer held.RUnlock()
	}
	if in.Deleted {
		return nil, types.ErrNoObject
	}
	if off >= in.Size {
		return nil, nil
	}
	if off+n > in.Size {
		n = in.Size - off
	}
	out, err := d.readExtent(in, off, n)
	if err != nil {
		return nil, err
	}
	d.statsMu.Lock()
	d.stats.BytesRead += int64(n)
	d.stats.ReadOps++
	d.statsMu.Unlock()
	return out, nil
}

// readExtent returns bytes [off, off+n) of in, n > 0, zeros for holes:
// the one path from an inode to its bytes, live or historical. It
// gathers the extent's block addresses, fetches them in coalesced runs,
// then assembles the result from the (cache-owned) block images. A
// reconstructed historical inode may map an index to a packed-slot
// reference instead of a block address; those slots are materialized
// through their delta chains here (the reference doubles as the map
// key — the tag bit keeps it disjoint from real addresses). The result
// is the caller's.
func (d *Drive) readExtent(in *Inode, off, n uint64) ([]byte, error) {
	var addrs []seglog.BlockAddr
	var materialized map[seglog.BlockAddr][]byte
	for blk := off / types.BlockSize; blk <= (off+n-1)/types.BlockSize; blk++ {
		a := in.Block(blk)
		switch {
		case a == seglog.NilAddr:
		case isDeltaRef(a):
			if _, done := materialized[a]; done {
				break
			}
			content, err := d.materializeRef(in, uint64(a))
			if err != nil {
				return nil, err
			}
			if materialized == nil {
				materialized = make(map[seglog.BlockAddr][]byte)
			}
			materialized[a] = content
		default:
			addrs = append(addrs, a)
		}
	}
	blocks, err := d.readBlocksVec(addrs)
	if err != nil {
		return nil, err
	}
	for a, content := range materialized {
		blocks[a] = content
	}
	out := make([]byte, n)
	var filled uint64
	for filled < n {
		blk := (off + filled) / types.BlockSize
		bo := (off + filled) % types.BlockSize
		want := types.BlockSize - bo
		if want > n-filled {
			want = n - filled
		}
		if addr := in.Block(blk); addr != seglog.NilAddr {
			copy(out[filled:filled+want], blocks[addr][bo:bo+want])
		}
		filled += want
	}
	return out, nil
}

// readBlocksVec fetches a set of log blocks, serving what it can from
// the cache and coalescing misses at adjacent addresses into
// multi-block ReadRun device I/Os (DESIGN.md §12.3) — the read-path
// mirror of the write path's AppendVec. A sequentially written extent
// lands contiguously in a segment, so a multi-block Read costs O(runs)
// device reads instead of O(blocks). Returned slices are owned by the
// block cache and must not be modified.
func (d *Drive) readBlocksVec(addrs []seglog.BlockAddr) (map[seglog.BlockAddr][]byte, error) {
	out := make(map[seglog.BlockAddr][]byte, len(addrs))
	var misses []seglog.BlockAddr
	for _, a := range addrs {
		if _, seen := out[a]; seen {
			continue
		}
		out[a] = d.cache.get(a) // nil marks a miss (and dedups)
		if out[a] == nil {
			misses = append(misses, a)
		}
	}
	if len(misses) == 0 {
		return out, nil
	}
	sort.Slice(misses, func(i, j int) bool { return misses[i] < misses[j] })
	for i := 0; i < len(misses); {
		j := i + 1
		for j < len(misses) && misses[j] == misses[j-1]+1 &&
			d.log.SegOf(misses[j]) == d.log.SegOf(misses[i]) {
			j++
		}
		run := misses[i:j]
		buf := make([]byte, len(run)*seglog.BlockSize)
		if err := d.log.ReadRun(run[0], len(run), buf); err != nil {
			return nil, err
		}
		for k, a := range run {
			blk := buf[k*seglog.BlockSize : (k+1)*seglog.BlockSize : (k+1)*seglog.BlockSize]
			out[a] = blk
			d.cache.put(a, blk)
		}
		i = j
	}
	return out, nil
}

// Write replaces bytes [off, off+len(data)) of the live version,
// creating a new version. It never disturbs prior versions. Writers to
// different objects proceed in parallel.
func (d *Drive) Write(cred types.Cred, id types.ObjectID, off uint64, data []byte) error {
	d.mu.RLock()
	_, err := d.writeShared(cred, id, off, data)
	d.auditOp(cred, types.OpWrite, id, off, uint64(len(data)), "", err)
	return d.releaseShared(err)
}

// Append writes data at the live version's end, returning the offset at
// which it landed.
func (d *Drive) Append(cred types.Cred, id types.ObjectID, data []byte) (uint64, error) {
	d.mu.RLock()
	off, err := d.writeShared(cred, id, ^uint64(0), data)
	d.auditOp(cred, types.OpAppend, id, off, uint64(len(data)), "", err)
	if err != nil {
		off = 0 // the data landed nowhere; the record keeps where it would have
	}
	return off, d.releaseShared(err)
}

// writeShared implements Write and Append (off == ^0 means append),
// returning where the data lands once the door has the object locked,
// and 0 before. An empty write is checked like any other and then
// creates no version. Resolving the append offset and performing the
// write happen under one exclusive object lock hold, so concurrent
// appends to the same object land at distinct offsets. Caller holds the
// shared drive lock.
func (d *Drive) writeShared(cred types.Cred, id types.ObjectID, off uint64, data []byte) (uint64, error) {
	var at uint64
	err := d.mutateShared(cred, id, errIf(len(data) > types.MaxIO, types.ErrTooLarge), types.PermWrite,
		func(o *object) (bool, error) {
			at = off
			if off == ^uint64(0) {
				at = o.ino.Size
			}
			return len(data) == 0, nil
		},
		func(o *object) error { return d.writeBlocksLocked(cred, o, at, data) })
	return at, err
}

// writeBlocksLocked performs the block-level write on an authorized
// object. It is shared by the external write path and internal writers
// (partition table, Revert). Caller holds o.mu exclusively (plus the
// shared drive lock) or the exclusive drive lock.
func (d *Drive) writeBlocksLocked(cred types.Cred, o *object, off uint64, data []byte) error {
	in := o.ino
	now := vclock.TS(d.clk)
	end := off + uint64(len(data))
	b0 := off / types.BlockSize
	b1 := (end - 1) / types.BlockSize

	var histBytes int64
	vec := make([]seglog.VecEntry, 0, b1-b0+1)
	owned := make([]bool, 0, b1-b0+1) // Data is a private full-block buffer
	for blk := b0; blk <= b1; blk++ {
		blkStart := blk * types.BlockSize
		lo := uint64(0)
		if off > blkStart {
			lo = off - blkStart
		}
		hi := uint64(types.BlockSize)
		if end < blkStart+types.BlockSize {
			hi = end - blkStart
		}
		var content []byte
		isOwned := false
		if lo == 0 && hi == types.BlockSize {
			content = data[blkStart+lo-off : blkStart+hi-off]
		} else {
			isOwned = true
			// Read-modify-write of a partial block. Bytes beyond the
			// current size are zeros regardless of stale block tails.
			merged := make([]byte, types.BlockSize)
			if old := in.Block(blk); old != seglog.NilAddr {
				prev, err := d.readBlock(old)
				if err != nil {
					return err
				}
				valid := in.Size
				if valid > blkStart {
					v := valid - blkStart
					if v > types.BlockSize {
						v = types.BlockSize
					}
					copy(merged[:v], prev[:v])
				}
			}
			copy(merged[lo:hi], data[blkStart+lo-off:blkStart+hi-off])
			keep := hi
			if sz := in.Size; sz > blkStart && sz-blkStart > keep {
				keep = sz - blkStart
				if keep > types.BlockSize {
					keep = types.BlockSize
				}
			}
			content = merged[:keep]
		}
		vec = append(vec, seglog.VecEntry{Key: blk, Time: now, Data: content})
		owned = append(owned, isOwned)
	}
	// One vectored append stages the whole write under a single log
	// mutex hold, and the blocks land contiguously so the next flush
	// covers them with one sequential device write.
	newAddrs, err := d.log.AppendVec(seglog.KindData, o.id, vec...)
	if err != nil {
		return err
	}
	fulls := make([][]byte, len(newAddrs))
	for i, addr := range newAddrs {
		d.usage.liveBorn(segOf(d.log, addr))
		full := vec[i].Data
		if owned[i] && cap(full) >= types.BlockSize {
			// The read-modify-write merge buffer is already a private,
			// zero-tailed full block; cache it directly instead of
			// allocating and copying another 4KB per block.
			full = full[:types.BlockSize]
		} else {
			buf := make([]byte, types.BlockSize)
			copy(buf, full)
			full = buf
		}
		d.cache.put(addr, full)
		fulls[i] = full
	}

	// Emit journal entries, splitting ranges that exceed the per-entry
	// pointer budget.
	oldSize := in.Size
	newSize := oldSize
	if end > newSize {
		newSize = end
	}
	// A policy that may set entry masks pays a smaller per-entry pointer
	// budget so the richer wire encoding still fits a journal sector.
	pol := d.effectivePolicy(o.id)
	maxPer := journal.MaxBlocksPerEntry
	if (pol.DeltaEnabled && d.opts.maxDeltaChain > 0) || pol.Mode != types.ModeEveryVersion {
		maxPer = maxDeltaEntryBlocks
	}
	blk := b0
	remaining := newAddrs
	remFulls := fulls
	for len(remaining) > 0 {
		n := len(remaining)
		if n > maxPer {
			n = maxPer
		}
		e := o.mint(cred, now, &journal.Entry{
			Type: journal.EntWrite, FirstBlock: blk,
			New:     append([]seglog.BlockAddr(nil), remaining[:n]...),
			Old:     make([]seglog.BlockAddr, n),
			OldSize: oldSize, NewSize: newSize,
		})
		for i := 0; i < n; i++ {
			e.Old[i] = in.Block(blk + uint64(i))
		}
		// Retention drops and reverse-delta conversion rewrite the Old
		// slots in place (DESIGN.md §16) and report what the history
		// pool actually grew by.
		histBytes += d.convertOldLocked(o, e, remFulls[:n], pol)
		d.appendEntry(o, e)
		oldSize = newSize
		blk += uint64(n)
		remaining = remaining[n:]
		remFulls = remFulls[n:]
	}
	d.statsMu.Lock()
	d.stats.BytesWritten += int64(len(data))
	d.statsMu.Unlock()
	d.charge(cred, histBytes)
	return nil
}

// Truncate sets the live version's length, creating a new version.
// Shrinks move the discarded block pointers into the history pool.
func (d *Drive) Truncate(cred types.Cred, id types.ObjectID, size uint64) error {
	d.mu.RLock()
	err := d.mutateShared(cred, id, nil, types.PermWrite, nil, func(o *object) error {
		return d.truncateBlocksLocked(cred, o, size)
	})
	d.auditOp(cred, types.OpTruncate, id, size, 0, "", err)
	return d.releaseShared(err)
}

// truncateBlocksLocked performs the block-level truncate. Caller holds
// o.mu exclusively (plus the shared drive lock) or the exclusive drive
// lock.
func (d *Drive) truncateBlocksLocked(cred types.Cred, o *object, size uint64) error {
	in, now, oldSize := o.ino, vclock.TS(d.clk), o.ino.Size
	// A shrink discards the mapped blocks past the new end; a growth
	// leaves a hole.
	var idxs []uint64
	if size < oldSize {
		for blk := (size + types.BlockSize - 1) / types.BlockSize; blk <= (oldSize-1)/types.BlockSize; blk++ {
			if in.Block(blk) != seglog.NilAddr {
				idxs = append(idxs, blk)
			}
		}
	}
	if len(idxs) == 0 {
		// No pointers to carry; still a size change.
		d.appendEntry(o, o.mint(cred, now, &journal.Entry{Type: journal.EntTruncate, OldSize: oldSize, NewSize: size}))
	}
	var histBytes int64
	// Split into per-entry contiguous runs bounded by the pointer
	// budget. Runs include unmapped gaps implicitly (Old=NilAddr).
	for i := 0; i < len(idxs); {
		start := idxs[i]
		j := i
		for j < len(idxs) && idxs[j]-start < journal.MaxBlocksPerEntry {
			j++
		}
		e := o.mint(cred, now, &journal.Entry{
			Type: journal.EntTruncate, FirstBlock: start,
			Old:     make([]seglog.BlockAddr, idxs[j-1]-start+1),
			OldSize: in.Size, NewSize: size,
		})
		for k := i; k < j; k++ {
			e.Old[idxs[k]-start] = in.Block(idxs[k])
			histBytes += types.BlockSize
		}
		d.appendEntry(o, e)
		i = j
	}
	d.charge(cred, histBytes)
	// An unaligned shrink leaves stale bytes in the retained tail
	// block; rewrite it zero-truncated, as a write of its own, so a
	// later size extension never resurrects them. The old tail leaves
	// the live set as any overwritten block does, under the policy.
	if rem := size % types.BlockSize; rem != 0 && size < oldSize {
		if oldAddr := in.Block(size / types.BlockSize); oldAddr != seglog.NilAddr {
			prev, err := d.readBlock(oldAddr)
			if err != nil {
				return err
			}
			return d.writeBlocksLocked(cred, o, size-rem, prev[:rem])
		}
	}
	return nil
}

// AttrInfo is the drive-maintained attribute view of one version.
type AttrInfo struct {
	ID         types.ObjectID
	Version    uint64
	Size       uint64
	CreateTime types.Timestamp
	ModTime    types.Timestamp
	Deleted    bool
	Attr       []byte // the client file system's opaque attribute blob
}

// GetAttr returns attributes of the version current at time at.
func (d *Drive) GetAttr(cred types.Cred, id types.ObjectID, at types.Timestamp) (AttrInfo, error) {
	d.mu.RLock()
	ai, err := d.getAttrShared(cred, id, at)
	d.auditOp(cred, types.OpGetAttr, id, 0, 0, "", err)
	return ai, d.releaseShared(err)
}

// getAttrShared implements GetAttr. Caller holds the shared drive lock.
func (d *Drive) getAttrShared(cred types.Cred, id types.ObjectID, at types.Timestamp) (AttrInfo, error) {
	if d.closed {
		return AttrInfo{}, types.ErrDriveStopped
	}
	in, held, err := d.inodeForRead(cred, id, at)
	if err != nil {
		return AttrInfo{}, err
	}
	if held != nil {
		defer held.RUnlock()
	}
	return AttrInfo{
		ID: id, Version: in.Version, Size: in.Size,
		CreateTime: in.CreateTime, ModTime: in.ModTime,
		Deleted: in.Deleted, Attr: append([]byte(nil), in.Attr...),
	}, nil
}

// SetAttr replaces the opaque attribute blob, creating a new version.
func (d *Drive) SetAttr(cred types.Cred, id types.ObjectID, attr []byte) error {
	d.mu.RLock()
	err := d.mutateShared(cred, id, errIf(len(attr) > types.MaxAttrLen, types.ErrTooLarge), types.PermWrite, nil,
		func(o *object) error {
			d.appendEntry(o, o.mint(cred, vclock.TS(d.clk), &journal.Entry{Type: journal.EntSetAttr,
				OldAttr: append([]byte(nil), o.ino.Attr...), NewAttr: append([]byte(nil), attr...)}))
			return nil
		})
	d.auditOp(cred, types.OpSetAttr, id, 0, uint64(len(attr)), "", err)
	return d.releaseShared(err)
}

// GetACLByUser returns the effective ACL entry for user at time at.
func (d *Drive) GetACLByUser(cred types.Cred, id types.ObjectID, user types.UserID, at types.Timestamp) (types.ACLEntry, error) {
	d.mu.RLock()
	e, err := d.getACLShared(cred, id, at, func(in *Inode) (types.ACLEntry, error) {
		return types.ACLEntry{User: user, Perm: in.PermFor(user)}, nil
	})
	d.auditOp(cred, types.OpGetACLByUser, id, uint64(user), 0, "", err)
	return e, d.releaseShared(err)
}

// GetACLByIndex returns slot idx of the ACL table at time at.
func (d *Drive) GetACLByIndex(cred types.Cred, id types.ObjectID, idx int, at types.Timestamp) (types.ACLEntry, error) {
	d.mu.RLock()
	e, err := d.getACLShared(cred, id, at, func(in *Inode) (types.ACLEntry, error) {
		if idx < 0 || idx >= len(in.ACL) {
			return types.ACLEntry{}, types.ErrInval
		}
		return in.ACL[idx], nil
	})
	d.auditOp(cred, types.OpGetACLByIndex, id, uint64(idx), 0, "", err)
	return e, d.releaseShared(err)
}

// getACLShared implements the ACL reads. Caller holds the shared drive
// lock.
func (d *Drive) getACLShared(cred types.Cred, id types.ObjectID, at types.Timestamp, pick func(*Inode) (types.ACLEntry, error)) (types.ACLEntry, error) {
	if d.closed {
		return types.ACLEntry{}, types.ErrDriveStopped
	}
	in, held, err := d.inodeForRead(cred, id, at)
	if err != nil {
		return types.ACLEntry{}, err
	}
	if held != nil {
		defer held.RUnlock()
	}
	return pick(in)
}

// inodeForRead resolves the version of object id that a read at time at
// sees, once the caller may read it: the one live-or-past choice behind
// Read, GetAttr and the ACL reads. The live version is read under the
// shared object lock (DESIGN.md §9), so held is o.mu, which the caller
// must RUnlock once done with the inode. A past version is rebuilt from
// a snapshot with no object lock held, and held is nil. The Recovery
// flag gates the past: the CURRENT ACL governs, so clearing the flag
// hides all old versions from everyone but the administrator (§3.4).
// That verdict is taken before the walk but reported after it,
// preserving error precedence. Caller holds the shared drive lock.
func (d *Drive) inodeForRead(cred types.Cred, id types.ObjectID, at types.Timestamp) (in *Inode, held *sync.RWMutex, err error) {
	o, err := d.getObjectShared(id)
	if err != nil {
		return nil, nil, err
	}
	if err := d.lockObjectRead(o); err != nil {
		return nil, nil, err
	}
	if at >= o.ino.ModTime {
		if err := d.checkPerm(cred, o.ino, types.PermRead); err != nil {
			o.mu.RUnlock()
			return nil, nil, err
		}
		return o.ino, &o.mu, nil
	}
	permErr := d.checkPerm(cred, o.ino, types.PermRead|types.PermRecover)
	snap := d.snapshotObject(o)
	o.mu.RUnlock()
	if in, err = d.inodeAtCached(snap, at); err != nil {
		return nil, nil, err
	}
	if permErr != nil {
		return nil, nil, permErr
	}
	return in, nil, nil
}

// SetACL replaces ACL slot idx, creating a new version. Users need
// PermSetACL; this is how a user clears the Recovery flag to hide old
// versions of a sensitive file from everyone but the administrator.
func (d *Drive) SetACL(cred types.Cred, id types.ObjectID, idx int, entry types.ACLEntry) error {
	d.mu.RLock()
	err := d.mutateShared(cred, id, errIf(idx < 0 || idx >= types.MaxACLEntries, types.ErrInval), types.PermSetACL, nil,
		func(o *object) error {
			d.appendEntry(o, o.mint(cred, vclock.TS(d.clk), &journal.Entry{Type: journal.EntSetACL,
				ACLIndex: uint8(idx), OldACL: o.ino.aclSlot(idx), NewACL: entry}))
			return nil
		})
	d.auditOp(cred, types.OpSetACL, id, uint64(idx), 0, "", err)
	return d.releaseShared(err)
}

// Sync makes every acknowledged modification durable: journal sectors
// are flushed, the audit buffer is written, and the open segment is
// forced to disk. The S4 client calls this at the end of each mutating
// NFS operation to honor NFSv2 semantics (§4.1.2).
func (d *Drive) Sync(cred types.Cred) error {
	d.mu.RLock()
	err := d.syncShared()
	d.auditOp(cred, types.OpSync, 0, 0, 0, "", err)
	d.mu.RUnlock()
	return err
}

// SyncObj makes the calling client's acknowledged writes to one object
// durable. The drive group-commits, so the force that satisfies this
// call covers everything staged before it — the per-object form exists
// so a shard router can route the sync to the one shard holding the
// object instead of broadcasting a whole-drive Sync to every shard, and
// so the audit log records which object the client cared about. The
// object must exist: a sync against a vanished object is a client bug
// worth an audit record, not a silent no-op.
func (d *Drive) SyncObj(cred types.Cred, id types.ObjectID) error {
	d.mu.RLock()
	err := errIf(d.closed, types.ErrDriveStopped)
	if err == nil {
		if _, err = d.getObjectShared(id); err == nil {
			err = d.syncShared()
		}
	}
	d.auditOp(cred, types.OpSync, id, 0, 0, "", err)
	d.mu.RUnlock()
	return err
}

// syncShared makes every modification staged before the call durable.
// Caller holds the shared drive lock.
//
// Concurrent callers group-commit (DESIGN.md §11): each takes a
// sequence-numbered ticket, and one leader at a time flushes the dirty
// object set and forces the log on behalf of every ticket taken before
// its batch closed. A ticket holder's writes were staged before its
// ticket was issued, and the leader reads the batch boundary after
// taking leadership, so the leader's force covers every covered
// ticket's writes — followers return without touching the device once
// commitDone passes their ticket. On a failed force commitDone is NOT
// advanced: each waiting follower retries as leader and reports its own
// error (the log's write-error latch makes those retries fail fast
// rather than spin).
func (d *Drive) syncShared() error {
	if d.closed {
		return types.ErrDriveStopped
	}
	d.commitMu.Lock()
	d.commitSeq++
	ticket := d.commitSeq
	for {
		if d.commitDone >= ticket {
			d.commitMu.Unlock()
			d.statsMu.Lock()
			d.stats.SyncsCoalesced++
			d.statsMu.Unlock()
			return nil
		}
		if !d.committing {
			break
		}
		d.commitCond.Wait()
	}
	d.committing = true
	d.commitMu.Unlock()

	// Let concurrently arriving syncers take tickets before the batch
	// closes; on a single CPU nothing else runs until the leader
	// yields, so without yielding every batch would be a batch of one.
	// Keep yielding while tickets are still arriving (bounded, so a
	// steady trickle cannot starve the leader).
	d.commitMu.Lock()
	batchEnd := d.commitSeq
	d.commitMu.Unlock()
	for i := 0; i < 4; i++ {
		runtime.Gosched()
		d.commitMu.Lock()
		end := d.commitSeq
		d.commitMu.Unlock()
		if end == batchEnd {
			break
		}
		batchEnd = end
	}

	err := d.flushDirtyObjects()
	if err == nil {
		// Audit records are drive-internal: they are flushed when a
		// block's worth accumulates (auditOp) or at checkpoints, not per
		// client sync — §5.1.4's "one disk write approximately every 750
		// operations" in the worst case.
		err = d.log.Sync()
	}

	d.commitMu.Lock()
	if err == nil {
		d.commitDone = batchEnd
	}
	d.committing = false
	d.commitCond.Broadcast()
	d.commitMu.Unlock()
	if err == nil {
		d.statsMu.Lock()
		d.stats.CommitBatches++
		d.statsMu.Unlock()
	}
	return err
}

// flushDirtyObjects packs the pending journal entries of every object
// in the dirty set into sectors. Caller holds the shared drive lock.
func (d *Drive) flushDirtyObjects() error {
	d.dirtyMu.Lock()
	objs := make([]*object, 0, len(d.dirtyObjs))
	for _, o := range d.dirtyObjs {
		objs = append(objs, o)
	}
	d.dirtyMu.Unlock()
	// In ID order, not the map's: where each sector lands, and so every
	// address and count downstream of it, is then a function of the ops.
	slices.SortFunc(objs, func(a, b *object) int { return cmp.Compare(a.id, b.id) })
	for _, o := range objs {
		o.mu.Lock()
		var err error
		if len(o.pending) > 0 {
			// Under the on-close policy a sync is the "close" that marks
			// the current version retained (DESIGN.md §16).
			if o.ino != nil && d.effectivePolicy(o.id).Mode == types.ModeOnClose &&
				o.ino.Version > o.retainedVer {
				o.retainedVer = o.ino.Version
			}
			err = d.flushJournalLocked(o)
		} else {
			// Raced with another flusher; membership is stale.
			d.markClean(o)
		}
		o.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// SetWindow adjusts the guaranteed detection window (administrative).
// It re-schedules every object's aging, so it is a whole-drive
// operation.
func (d *Drive) SetWindow(cred types.Cred, w time.Duration) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.adminGate(cred, types.OpSetWindow)
	switch {
	case err != nil:
	case w < 0:
		err = types.ErrInval
	default:
		d.window = w
		// Cached aging schedules were computed for the old window.
		for _, o := range d.objects {
			o.nextAge = 0
		}
	}
	d.auditOp(cred, types.OpSetWindow, 0, uint64(w), 0, "", err)
	return err
}

// StatusInfo is a point-in-time summary of drive state.
type StatusInfo struct {
	Window        time.Duration
	Objects       int
	LiveBlocks    int64
	HistoryBlocks int64
	FreeSegments  int64
	TotalSegments int64
	AuditRecords  int64
	// NextOID is the next object ID this drive would self-allocate. A
	// shard router seeds its cross-shard ID allocator from the maximum
	// across its shards so router-assigned IDs never collide with
	// recovered state.
	NextOID  types.ObjectID
	Suspects []types.ClientID
}

// Status reports drive occupancy and health.
func (d *Drive) Status() StatusInfo {
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.statsMu.Lock()
	auditRecords := d.stats.AuditRecords
	d.statsMu.Unlock()
	return StatusInfo{
		Window:        d.window,
		Objects:       len(d.objects),
		LiveBlocks:    d.usage.liveBlocks(),
		HistoryBlocks: d.usage.historyBlocks(),
		FreeSegments:  d.log.FreeSegments(),
		TotalSegments: d.log.NumSegments(),
		AuditRecords:  auditRecords,
		NextOID:       d.nextOID,
		Suspects:      d.thr.Suspects(),
	}
}

// GetStats returns a copy of the activity counters; the RPC layer and
// s4ctl stats read drive health through it.
func (d *Drive) GetStats() Stats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.statsMu.Lock()
	s := d.stats
	s.Ops = make(map[types.Op]int64, len(d.stats.Ops))
	for k, v := range d.stats.Ops {
		s.Ops[k] = v
	}
	d.statsMu.Unlock()
	data, jrn := d.cache.counters()
	s.CacheHits, s.CacheMisses = data.hits, data.misses
	s.JournalCacheHits, s.JournalCacheMisses = jrn.hits, jrn.misses
	s.HistoryBlocks = d.usage.historyBlocks()
	s.LiveBlocks = d.usage.liveBlocks()
	s.FreeSegments = d.log.FreeSegments()
	s.TotalSegments = d.log.NumSegments()
	s.LogAppends, s.DeviceForces = d.log.Stats()
	s.VecAppends, s.FlushStalls = d.log.PipeStats()
	s.DeviceReads, s.VecReads = d.log.ReadStats()
	s.ReconCacheHits, s.ReconCacheMisses = d.recon.counters()
	s.LandmarkHits = d.landmarkHits.Load()
	s.HistoryWalkEntries = d.walkEntries.Load()
	d.dirtyMu.Lock()
	s.DirtyObjects = int64(len(d.dirtyObjs))
	d.dirtyMu.Unlock()
	s.CorruptDetected, s.CorruptRepaired, s.QuarantinedSegments = d.log.IntegrityStats()
	s.ScrubPasses = d.scrubPasses.Load()
	s.ScrubBlocks = d.scrubBlocks.Load()
	return s
}

// ---- Throttle integration ----

// throttle applies the abuse-detector penalty for cred's client before
// a mutating operation proceeds (§3.3: selectively increasing latency
// lets well-behaved users keep working during an attack). By default
// the delay is served in-band while holding the target object's lock,
// so an abusive client's penalty also defers its own queued work, not
// other objects. With Options.SurfaceThrottle the penalty is returned
// as a retryable error carrying the delay, and the operation does not
// execute — the caller (the RPC server) pushes the wait to the client.
func (d *Drive) throttle(cred types.Cred) error {
	// Space gate first: client mutations may not consume the cleaner's
	// segment reserve. Compaction, journal-chain relocation, and the
	// checkpoint barrier all append to the log, so letting foreground
	// writes race into the last free segments wedges the drive — full
	// disk means the cleaner can no longer relocate anything to free
	// space (the classic log-structured cleaner reserve). Refusing here
	// keeps ErrNoSpace retryable: a cleaning pass always has room to
	// make progress.
	if d.log.FreeSegments() <= d.spaceReserve {
		return types.ErrNoSpace
	}
	if cred.Admin {
		return nil
	}
	delay := d.thr.Delay(cred.Client)
	if delay <= 0 {
		return nil
	}
	d.statsMu.Lock()
	d.stats.ThrottleDelays += delay
	d.statsMu.Unlock()
	if d.opts.SurfaceThrottle {
		return &types.RetryableError{Err: types.ErrThrottled, After: delay}
	}
	d.clk.Sleep(delay)
	return nil
}

// charge charges history-pool growth to the client. The throttle and
// usage counters are internally synchronized.
func (d *Drive) charge(cred types.Cred, histBytes int64) {
	if histBytes <= 0 {
		return
	}
	d.thr.SetPool(d.usage.historyBlocks() * types.BlockSize)
	d.thr.Record(cred.Client, histBytes, d.clk.Now())
}
