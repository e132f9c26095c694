package torture

import (
	"encoding/binary"
	"os"
	"slices"
	"testing"
	"time"

	"s4/internal/disk"
	"s4/internal/seglog"
	"s4/internal/types"
)

// Each top-level crash sweep builds its own drives and recorders and
// shares no package state, so the sweeps run in parallel (t.Parallel).

// sweepSeeds picks the seeds for the main sweep: one seed in -short
// runs, a few in the default tier-1 run, and a wide nightly sweep when
// S4_TORTURE_LONG is set (see .github/workflows/ci.yml).
func sweepSeeds(t *testing.T) ([]int64, Config) {
	cfg := Config{
		// 370 ops keep every seed above the 500-crash-point floor
		// (506, 529 and 511 for seeds 1-3): a one-sector summary
		// snapshot, which is most of them since entries are stored at
		// their encoded size, has no torn prefix to enumerate.
		Ops:               370,
		Torn:              true,
		PostRecoverySmoke: true,
	}
	if os.Getenv("S4_TORTURE_LONG") != "" {
		cfg.Ops = 1000
		// Deterministic index-write cadence on top of the random
		// checkpoints: the nightly sweep crosses many more checkpoint-
		// slot (and therefore segment-index) write boundaries.
		cfg.IndexFlushEvery = 11
		return []int64{1, 2, 3, 4, 5, 6, 7, 8}, cfg
	}
	if testing.Short() {
		return []int64{1}, cfg
	}
	return []int64{1, 2, 3}, cfg
}

// TestTortureSweep is the tentpole check: enumerate every crash point
// of a seeded workload (plus a torn variant of each multi-sector
// write) and hold all five recovery invariants at each one.
func TestTortureSweep(t *testing.T) {
	t.Parallel()
	seeds, cfg := sweepSeeds(t)
	for _, seed := range seeds {
		seed := seed
		t.Run(name(seed), func(t *testing.T) {
			cfg := cfg
			cfg.Seed = seed
			cfg.Logf = t.Logf
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("seed=%d: %d ops, %d objects, %d syncs, %d device writes -> %d crash points (%d torn), %d violations",
				seed, res.Ops, res.Objects, res.Syncs, res.Writes, res.CrashPoints, res.TornPoints, len(res.Violations))
			t.Logf("seed=%d: restart paths: %d indexed opens (%d entries replayed), %d fallbacks, full-scan replayed %d",
				seed, res.IndexLoads, res.ReplayIndexed, res.IndexFallbacks, res.ReplayFull)
			for i, v := range res.Violations {
				if i == 10 {
					t.Errorf("... and %d more", len(res.Violations)-10)
					break
				}
				t.Errorf("%s", v)
			}
			if res.CrashPoints < 500 {
				t.Fatalf("only %d crash points enumerated; want >= 500", res.CrashPoints)
			}
			// The equivalence battery must actually exercise both paths:
			// a sweep where no image anchored at the index proves nothing.
			if res.IndexLoads == 0 {
				t.Fatalf("no crash image recovered via the segment index")
			}
			if res.ReplayFull <= res.ReplayIndexed {
				t.Errorf("full-scan replay (%d entries) not above indexed replay (%d): index not shortening recovery",
					res.ReplayFull, res.ReplayIndexed)
			}
		})
	}
}

// TestBrokenReuseBarrierCaught proves the harness has teeth. With the
// cleaner's deferred-reuse barrier disabled (segments recycled before
// the checkpoint covering their relocation is durable — DESIGN.md §6),
// some crash point must recover state that references a clobbered
// segment, and the sweep must flag it. The identical configuration
// with the barrier intact must stay clean.
func TestBrokenReuseBarrierCaught(t *testing.T) {
	t.Parallel()
	base := Config{
		Ops:              400,
		Window:           250 * time.Millisecond,
		SegBlocks:        16,
		SyncEveryN:       3,
		CheckpointEveryN: 25,
		CleanEveryN:      4,
	}
	seeds := []int64{1, 2, 3, 4, 5}
	for _, seed := range seeds {
		broken := base
		broken.Seed = seed
		broken.UnsafeImmediateReuse = true
		res, err := Run(broken)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) == 0 {
			continue
		}
		t.Logf("seed=%d: broken barrier caught at %d of %d crash points, e.g. %s",
			seed, len(res.Violations), res.CrashPoints, res.Violations[0])
		ctl := base
		ctl.Seed = seed
		resC, err := Run(ctl)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range resC.Violations {
			t.Errorf("barrier intact, yet: %s", v)
		}
		return
	}
	t.Fatalf("deferred-reuse barrier disabled, yet no violation across seeds %v", seeds)
}

// TestTortureVectoredSeals sweeps a workload whose overwrites span up
// to 6 blocks on 8-block segments (7 payload slots), so nearly every
// vectored append crosses a segment seal mid-batch. This pins down the
// group-commit pipeline's seal hand-off: a crash between the payload
// flush and the summary write of either segment must still recover.
func TestTortureVectoredSeals(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Ops:               250,
		SegBlocks:         8,
		MaxWriteBlocks:    6,
		DiskBytes:         16 << 20,
		Torn:              true,
		PostRecoverySmoke: true,
		MaxCrashPoints:    600,
		Logf:              t.Logf,
	}
	seeds := []int64{1, 2}
	if testing.Short() || os.Getenv("S4_STRESS_SHORT") != "" {
		seeds = seeds[:1]
		cfg.Ops = 120
		cfg.MaxCrashPoints = 200
	}
	for _, seed := range seeds {
		cfg := cfg
		cfg.Seed = seed
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed=%d: %d ops, %d device writes -> %d crash points (%d torn), %d violations",
			seed, res.Ops, res.Writes, res.CrashPoints, res.TornPoints, len(res.Violations))
		for i, v := range res.Violations {
			if i == 10 {
				t.Errorf("... and %d more", len(res.Violations)-10)
				break
			}
			t.Errorf("%s", v)
		}
	}
}

// TestTortureCheckpointHeavy sweeps a workload that emits a landmark
// checkpoint every ~3 journal entries, with frequent cleaning so the
// index is also pruned, relocated, and dropped mid-run. Every crash
// image must recover a landmark index that matches a from-scratch chain
// walk (verifyImage's CheckInvariants, invariant 6) while all the
// usual durability and history invariants hold.
func TestTortureCheckpointHeavy(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Ops:               250,
		CheckpointEvery:   3,
		CleanEveryN:       10,
		DiskBytes:         16 << 20,
		Torn:              true,
		PostRecoverySmoke: true,
		MaxCrashPoints:    600,
		Logf:              t.Logf,
	}
	seeds := []int64{1, 2}
	if testing.Short() || os.Getenv("S4_STRESS_SHORT") != "" {
		seeds = seeds[:1]
		cfg.Ops = 120
		cfg.MaxCrashPoints = 200
	}
	// The last run repeats the first seed with an object cache of two
	// inodes: with a landmark every third entry nearly every op reloads an
	// object anchored at one, and every image is of a drive running on
	// such inodes.
	var runs []Config
	for _, seed := range seeds {
		cfg.Seed = seed
		runs = append(runs, cfg)
	}
	evict := runs[0]
	evict.EvictHard = true
	runs = append(runs, evict)
	for _, cfg := range runs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed=%d evict=%v: %d ops, %d device writes -> %d crash points (%d torn), %d violations",
			cfg.Seed, cfg.EvictHard, res.Ops, res.Writes, res.CrashPoints, res.TornPoints, len(res.Violations))
		for i, v := range res.Violations {
			if i == 10 {
				t.Errorf("... and %d more", len(res.Violations)-10)
				break
			}
			t.Errorf("%s", v)
		}
	}
}

// TestTortureIndexBoundaries checkpoints after exactly every 5 ops, so
// the crash-point sweep (with torn halves) lands densely on and inside
// the checkpoint-slot writes that persist the segment index. Every
// image must hold all invariants — including recovery equivalence —
// and a tear that validates the object-map blob but cuts the index
// region behind it must degrade to full replay (IndexFallbacks), never
// wedge or silently diverge.
func TestTortureIndexBoundaries(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Ops:                 200,
		IndexFlushEvery:     5,
		CleanEveryN:         12,
		DiskBytes:           16 << 20,
		Torn:                true,
		TornCheckpointSweep: true,
		PostRecoverySmoke:   true,
		MaxCrashPoints:      600,
		Logf:                t.Logf,
	}
	seeds := []int64{1, 2}
	if testing.Short() || os.Getenv("S4_STRESS_SHORT") != "" {
		seeds = seeds[:1]
		cfg.Ops = 100
		cfg.MaxCrashPoints = 200
	}
	var loads, fallbacks int64
	for _, seed := range seeds {
		cfg := cfg
		cfg.Seed = seed
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed=%d: %d crash points (%d torn): %d indexed opens, %d fallbacks, replay %d indexed / %d full",
			seed, res.CrashPoints, res.TornPoints, res.IndexLoads, res.IndexFallbacks, res.ReplayIndexed, res.ReplayFull)
		for i, v := range res.Violations {
			if i == 10 {
				t.Errorf("... and %d more", len(res.Violations)-10)
				break
			}
			t.Errorf("%s", v)
		}
		loads += res.IndexLoads
		fallbacks += res.IndexFallbacks
	}
	if loads == 0 {
		t.Fatalf("no crash image recovered via the segment index")
	}
	if fallbacks == 0 {
		t.Errorf("no crash image fell back to full replay: the sweep never crossed a partial-index boundary")
	}
}

// TestTorturePolicyModes sweeps the crash-image battery under each
// retention policy mode with reverse-delta conversion on (DESIGN.md
// §16). every-version keeps the strict oracle: delta compression must
// be lossless, so every durable version reads back byte-exact through
// whatever chains formed, at every crash point, on both recovery
// paths. The skip modes run the relaxed oracle: an unretained version
// may read as typed ErrNoVersion, but a read that succeeds must be
// byte-exact — retention never fabricates history. Each run asserts
// conversion actually fired, so the sweep cannot pass vacuously.
func TestTorturePolicyModes(t *testing.T) {
	t.Parallel()
	modes := []types.PolicyMode{
		types.ModeEveryVersion, types.ModeLandmarkOnly, types.ModeOnClose,
	}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := Config{
				Seed:           7,
				Ops:            200,
				MaxWriteBlocks: 4,
				DiskBytes:      16 << 20,
				// Dense landmarks: under landmark-only retention most
				// versions sit at/after the newest landmark, so the
				// sweep crosses both retained (converted) and dropped
				// (skip-poisoned) versions instead of dropping
				// everything and leaving conversion unexercised.
				CheckpointEvery:   3,
				Torn:              true,
				PostRecoverySmoke: true,
				MaxCrashPoints:    600,
				Policy:            types.Policy{Mode: mode, DeltaEnabled: true},
				Logf:              t.Logf,
			}
			if testing.Short() || os.Getenv("S4_STRESS_SHORT") != "" {
				cfg.Ops = 100
				cfg.MaxCrashPoints = 200
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Non-vacuousness, per mode. Landmark-only can never
			// convert: blocks at/before the newest landmark are
			// address-pinned by checkpoint images (keyframes by
			// design), and younger blocks are dropped — so there the
			// sweep asserts retention drops instead.
			if mode != types.ModeLandmarkOnly && res.DeltaBlocks == 0 {
				t.Fatal("workload wrote no packed delta blocks; the sweep would not cover conversion")
			}
			if mode != types.ModeEveryVersion && res.SkippedVersions == 0 {
				t.Fatal("workload dropped no versions; the sweep would not cover retention skips")
			}
			t.Logf("mode=%v: %d ops, %d packed delta blocks, %d dropped versions, %d device writes -> %d crash points (%d torn), %d violations",
				mode, res.Ops, res.DeltaBlocks, res.SkippedVersions, res.Writes, res.CrashPoints, res.TornPoints, len(res.Violations))
			for i, v := range res.Violations {
				if i == 10 {
					t.Errorf("... and %d more", len(res.Violations)-10)
					break
				}
				t.Errorf("%s", v)
			}
		})
	}
}

// TestTortureShortWindow sweeps the dimension a one-hour window never
// reaches: ageing across the crash. With a window of tens of virtual
// milliseconds the workload's own cleaner ages entries, relocates
// blocks and reaps objects between checkpoints, every image is
// recovered long after most of its history left the window, and the
// post-recovery cleaner pass (invariant 8) must release exactly what
// the dead drive had not — never twice, never anything in-window.
//
// Each seed must both age and copy at both windows, and -short runs the
// first alone, so the lists hold seeds that do so with room to spare: at
// 300 ops seed 1 copies nothing at 80 ms once audit blocks are written
// full, and at 1,000 ops seed 8 copies nothing there either.
func TestTortureShortWindow(t *testing.T) {
	t.Parallel()
	seeds := []int64{7, 9, 12}
	cfg := Config{Ops: 300, MaxCrashPoints: 400, PostRecoverySmoke: true}
	if os.Getenv("S4_TORTURE_LONG") != "" {
		seeds = []int64{2, 3, 4, 5, 7, 9, 10, 12}
		cfg.Ops, cfg.MaxCrashPoints = 1000, 0
	} else if testing.Short() || os.Getenv("S4_STRESS_SHORT") != "" {
		seeds = seeds[:1]
		cfg.MaxCrashPoints = 150
	}
	for _, window := range []time.Duration{20 * time.Millisecond, 80 * time.Millisecond} {
		window := window
		t.Run(window.String(), func(t *testing.T) {
			reaped := 0
			for _, seed := range seeds {
				cfg := cfg
				cfg.Seed, cfg.Window = seed, window
				stale := 0
				cfg.Inspect = func(img disk.Device) {
					if staleTail(t, img) {
						stale++
					}
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("seed=%d: %d crash points (%d over an earlier life's bytes past a block's Len), %d indexed opens, %d fallbacks; workload cleaner aged %d entries, copied %d blocks, reaped %d objects; %d violations",
					seed, res.CrashPoints, stale, res.IndexLoads, res.IndexFallbacks,
					res.Cleaned.EntriesAged, res.Cleaned.BlocksCopied, res.Cleaned.ObjectsReaped, len(res.Violations))
				// A flush run ends at its last block's Len, so on a reused
				// segment the device keeps an earlier life's bytes past it,
				// which recovery must never read as this life's.
				if stale == 0 {
					t.Errorf("seed=%d: no crash image holds bytes past a covered block's Len: the sweep never recovers over a reused segment's tails", seed)
				}
				for i, v := range res.Violations {
					if i == 10 {
						t.Errorf("... and %d more", len(res.Violations)-10)
						break
					}
					t.Errorf("seed=%d: %s", seed, v)
				}
				// A run in which nothing aged or moved sweeps nothing new.
				if res.Cleaned.EntriesAged == 0 || res.Cleaned.BlocksCopied == 0 {
					t.Errorf("seed=%d: workload cleaner aged %d entries and copied %d blocks; the sweep needs both",
						seed, res.Cleaned.EntriesAged, res.Cleaned.BlocksCopied)
				}
				if res.IndexLoads == 0 {
					t.Errorf("seed=%d: no crash image recovered via the segment index", seed)
				}
				reaped += res.Cleaned.ObjectsReaped
			}
			if reaped == 0 {
				t.Errorf("no seed reaped an object: the sweep never crossed a delete ageing out")
			}
		})
	}
}

// TestTortureRelocation sweeps the one thing the cleaner does to a live
// block: move it. An object's landmark images are full inodes, so
// when one of its data blocks is copied forward the cleaner retires its
// landmarks — and every recovery afterwards must agree, or a history
// read anchors at an image whose block points into a segment that has
// since been freed and refilled. No other sweep gets there: it takes a
// live block of a landmark-bearing object relocated (neighbours aged,
// landmarks in-window: the clock jump, on a device small enough that
// the cleaner's first pass after it runs pressed), the emptied segment
// reused (the post-recovery refill), and then a read of history below a
// landmark on the recovered image (the snapshot oracle, re-read after
// the refill). The second configuration is tighter still — more of the
// device in use at the jump, so more chains re-placed — and is there
// for what a pressed pass leaves in the log besides: copies of old
// sectors whose entries name blocks long released (recovery must not
// vet them as a crash-cut tail), a re-placed chain extended past its
// checkpointed tail, and audit blocks released in a segment that went
// on being written.
func TestTortureRelocation(t *testing.T) {
	t.Parallel()
	sweeps := []struct {
		name  string
		seeds []int64
		cfg   Config
	}{
		{"landmarks", []int64{2, 3, 4}, Config{Ops: 220, StaggerAt: 120, CheckpointEvery: 3}},
		// Seed 29 beside the parent's three: it relocates four
		// landmark-bearing objects and appends five entries between a
		// relocation and its barrier, where no landmark may be emitted.
		// Seed 2 runs into the cleaner's reserve at op 198 (one withheld
		// root block keeps the drive a segment above the barrier's
		// low-space trigger one pass longer) and is served after the
		// pass the refusal asks for: SpaceRetries in the log line.
		{"pressed", []int64{2, 29, 1, 7}, Config{Ops: 200, StaggerAt: 100, CheckpointEvery: 2, MaxObjects: 12}},
		// The same two with an object cache of two inodes: evict, reload
		// anchored at a landmark, write, crash, recover — at every crash
		// point.
		{"landmarks-evict", []int64{2}, Config{Ops: 220, StaggerAt: 120, CheckpointEvery: 3, EvictHard: true}},
		{"pressed-evict", []int64{2}, Config{Ops: 200, StaggerAt: 100, CheckpointEvery: 2, MaxObjects: 12, EvictHard: true}},
	}
	for _, sw := range sweeps {
		sw := sw
		t.Run(sw.name, func(t *testing.T) {
			cfg, seeds := sw.cfg, sw.seeds
			cfg.DiskBytes, cfg.CleanEveryN, cfg.CheckpointEveryN = 2<<20, 3, 10
			cfg.MaxCrashPoints = 120
			if os.Getenv("S4_TORTURE_LONG") != "" {
				cfg.MaxCrashPoints = 0
			} else if testing.Short() || os.Getenv("S4_STRESS_SHORT") != "" {
				seeds, cfg.MaxCrashPoints = seeds[:1], 60
			}
			relocs, reads := 0, int64(0)
			for _, seed := range seeds {
				cfg.Seed = seed
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("seed=%d: %d crash points, %d indexed opens, %d fallbacks; workload cleaner copied %d blocks, %d relocations of landmark-bearing objects; %d landmark-anchored reads on recovered images; %d ops retried after ErrNoSpace; %d violations",
					seed, res.CrashPoints, res.IndexLoads, res.IndexFallbacks, res.Cleaned.BlocksCopied,
					res.LandmarkedRelocs, res.LandmarkReads, res.SpaceRetries, len(res.Violations))
				for i, v := range res.Violations {
					if i == 10 {
						t.Errorf("... and %d more", len(res.Violations)-10)
						break
					}
					t.Errorf("seed=%d: %s", seed, v)
				}
				relocs += res.LandmarkedRelocs
				reads += res.LandmarkReads
			}
			if relocs == 0 || reads == 0 {
				t.Errorf("%d relocations of landmark-bearing objects, %d landmark-anchored reads after recovery: the sweep needs both", relocs, reads)
			}
		})
	}
}

func name(seed int64) string {
	return "seed=" + string(rune('0'+seed%10))
}

// hostedSummaryMagic is the magic of a segment summary on the medium
// ("S4G5"), which staleTail skips when a partial snapshot starts a
// block's tail.
const hostedSummaryMagic = 0x53344735

// staleTail reports whether some payload block a summary on img covers
// holds non-zero device bytes past its Len rounded up to a sector: an
// earlier life's, since a flush staged zeros there and does not write
// them for the last block of a run. A partial snapshot may start there
// too, this life's (seglog's flushLocked); the sectors its header's size
// at [36:40) covers are not counted.
func staleTail(t *testing.T, img disk.Device) bool {
	t.Helper()
	l, err := seglog.Open(img)
	if err != nil {
		t.Fatal(err)
	}
	tail := make([]byte, seglog.BlockSize)
	for seg := int64(0); seg < l.NumSegments(); seg++ {
		sum, ok, err := l.ReadSummary(seg)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range sum.Entries {
			end := (int(e.Len) + disk.SectorSize - 1) / disk.SectorSize
			if !ok || e.Kind == seglog.KindPad || end == seglog.BlockSize/disk.SectorSize {
				continue
			}
			buf := tail[:seglog.BlockSize-end*disk.SectorSize]
			if err := img.ReadSectors(int64(l.EntryAt(seg, i))*(seglog.BlockSize/disk.SectorSize)+int64(end), buf); err != nil {
				t.Fatal(err)
			}
			if len(buf) >= 40 && binary.LittleEndian.Uint32(buf) == hostedSummaryMagic {
				n := (int(binary.LittleEndian.Uint32(buf[36:])) + disk.SectorSize - 1) / disk.SectorSize * disk.SectorSize
				buf = buf[min(max(n, disk.SectorSize), len(buf)):]
			}
			if slices.ContainsFunc(buf, func(b byte) bool { return b != 0 }) {
				return true
			}
		}
	}
	return false
}
