// Background integrity scrubber (DESIGN.md §15).
//
// Every media read is already verified against the segment-summary
// checksums, but a block nobody reads can rot for months before a
// client trips over it — and by then the redundant copies that could
// have healed it may be gone. The scrubber closes that gap: it sweeps
// sealed segments during idle periods, reading every summarized block
// back so the seglog's verify-and-repair machinery runs over cold data
// too. Detection is the point; repair and quarantine fall out of the
// same read path clients use.
//
// The sweep position is advisory, in-memory state. A crash or restart
// simply starts the next pass at segment zero — scrubbing a segment
// twice is wasted bandwidth, never a correctness problem — so no scrub
// state is ever written to disk.
package core

import (
	"time"

	"s4/internal/throttle"
	"s4/internal/types"
)

// DefaultScrubRate is the background scrubber's pace in blocks verified
// per second. At 4KB blocks this is ~2MB/s of read bandwidth — cheap
// enough that foreground ops lost well under 10% throughput when it was
// measured in-process (PR 8), yet a full pass over a 100GB drive still
// completes in under a day.
const DefaultScrubRate = 512

// scrubBackoff is how long the scrubber stands down when it sees
// foreground traffic or a transient error: scrubbing consumes only
// idle bandwidth.
const scrubBackoff = 50 * time.Millisecond

// ScrubResult summarizes one integrity sweep.
type ScrubResult struct {
	Segments    int64 // sealed segments verified this sweep
	Blocks      int64 // blocks checked against their summary checksums
	Corrupt     int64 // blocks that failed and could not be repaired
	Repaired    int64 // blocks healed from a redundant copy this sweep
	Quarantined int64 // segments currently quarantined (cumulative)
}

// Scrub runs one full synchronous sweep over every sealed segment and
// reports what it found. Admin-only: it is the `s4ctl scrub` on-demand
// trigger, and an unprivileged client should not be able to command a
// whole-device read workload. Like every request it is audited, refused
// or not.
func (d *Drive) Scrub(cred types.Cred) (ScrubResult, error) {
	d.mu.RLock()
	err := d.adminGate(cred, types.OpScrub)
	d.mu.RUnlock()
	var res ScrubResult
	if err == nil {
		res, err = d.scrubSweep()
	}
	d.mu.RLock()
	d.auditOp(cred, types.OpScrub, 0, 0, 0, "", err)
	d.mu.RUnlock()
	return res, err
}

// scrubSweep is Scrub's sweep, one segment at a time under the shared
// drive lock.
func (d *Drive) scrubSweep() (ScrubResult, error) {
	var res ScrubResult
	_, rep0, _ := d.log.IntegrityStats()
	n := d.log.NumSegments()
	for seg := int64(0); seg < n; seg++ {
		checked, corrupt, err := d.verifySegment(seg)
		if err != nil {
			return res, err
		}
		if checked > 0 {
			res.Segments++
		}
		res.Blocks += int64(checked)
		res.Corrupt += int64(corrupt)
	}
	_, rep1, quar := d.log.IntegrityStats()
	res.Repaired = rep1 - rep0
	res.Quarantined = quar
	d.scrubPasses.Add(1)
	d.scrubBlocks.Add(res.Blocks)
	return res, nil
}

// scrubStep verifies the segment under the advisory cursor and advances
// it, reporting whether the cursor wrapped (one pass complete).
func (d *Drive) scrubStep() (blocks, corrupt int, wrapped bool, err error) {
	d.scrubMu.Lock()
	seg := d.scrubCursor
	d.scrubCursor++
	if d.scrubCursor >= d.log.NumSegments() {
		d.scrubCursor = 0
		wrapped = true
	}
	d.scrubMu.Unlock()
	blocks, corrupt, err = d.verifySegment(seg)
	return blocks, corrupt, wrapped, err
}

// verifySegment checks one segment under the shared drive lock: the
// hold is what keeps the cleaner from freeing or rewriting the segment
// mid-verify, exactly as it protects history walks.
func (d *Drive) verifySegment(seg int64) (checked, corrupt int, err error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return 0, 0, types.ErrDriveStopped
	}
	return d.log.VerifySegment(seg)
}

// StartScrubber launches the background sweep goroutine, paced at
// blocksPerSec (0 takes DefaultScrubRate, negative disables). Idempotent
// while running; Close stops it. The drive never starts it on its own —
// the serving binary (s4d) owns the decision, so embedded and test
// drives stay goroutine-free unless they opt in.
func (d *Drive) StartScrubber(blocksPerSec float64) {
	if blocksPerSec < 0 {
		return
	}
	if blocksPerSec == 0 {
		blocksPerSec = DefaultScrubRate
	}
	d.scrubMu.Lock()
	if d.scrubStop != nil {
		d.scrubMu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	d.scrubStop, d.scrubDone = stop, done
	d.scrubMu.Unlock()
	go d.scrubLoop(blocksPerSec, stop, done)
}

// StopScrubber signals the background sweeper and waits for it to exit.
// No-op if it is not running.
func (d *Drive) StopScrubber() {
	d.scrubMu.Lock()
	stop, done := d.scrubStop, d.scrubDone
	d.scrubStop, d.scrubDone = nil, nil
	d.scrubMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

func (d *Drive) scrubLoop(blocksPerSec float64, stop, done chan struct{}) {
	defer close(done)
	// One second of burst: the pacer absorbs a whole segment's reads,
	// then spreads the cost over the following idle time.
	pacer := throttle.NewPacer(blocksPerSec, blocksPerSec)
	lastOps := d.opCount()
	for {
		select {
		case <-stop:
			return
		default:
		}
		// Pause under load: if clients issued operations since the last
		// look, stand down instead of competing for the device.
		if ops := d.opCount(); ops != lastOps {
			lastOps = ops
			if !sleepOrStop(stop, scrubBackoff) {
				return
			}
			continue
		}
		blocks, _, wrapped, err := d.scrubStep()
		if err != nil {
			// Closed drive or a hard device error: nothing useful to do
			// but back off and let Stop collect us.
			if !sleepOrStop(stop, scrubBackoff) {
				return
			}
			continue
		}
		if wrapped {
			d.scrubPasses.Add(1)
		}
		d.scrubBlocks.Add(int64(blocks))
		// Pay for the segment just read; +1 keeps empty segments from
		// spinning the loop at full speed.
		if wait := pacer.Take(time.Now(), float64(blocks)+1); wait > 0 {
			if !sleepOrStop(stop, wait) {
				return
			}
		}
	}
}

// opCount sums the per-op counters; the scrubber uses deltas as its
// foreground-activity signal.
func (d *Drive) opCount() int64 {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	var n int64
	for _, v := range d.stats.Ops {
		n += v
	}
	return n
}

// sleepOrStop waits d or until stop closes; false means stop.
func sleepOrStop(stop chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}
