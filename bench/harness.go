package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"s4/internal/core"
	"s4/internal/disk"
	"s4/internal/types"
	"s4/internal/vclock"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	ops      int64 // > 0: each client issues exactly this many ops instead of running for seconds
	clients  int
	trace    bool
	scale    float64 // shrinks populations, devices and the restart image (smoke test)
	setups   int     // times set-up is repeated; its median is setup_s
	traceOut string
}

// Fixed conditions of every request-path workload (README.md).
const (
	opTick        = time.Millisecond // virtual time per issued op
	stallLimit    = 10 * time.Second // no completed op for this long aborts the run
	sliceLen      = 250 * time.Millisecond
	rampWindows   = 1.2 // ops run before timing, in detection windows
	histReadReach = 0.8 // histreads aim at versions up to this share of the window old
)

// env is what a request-path workload stands on: the harness-owned
// virtual clock, the wrapped device, the drive, the harness-driven
// cleaner, and the failure bookkeeping.
type env struct {
	cfg  config
	tr   *tracer
	clk  *vclock.Virtual
	dev  *tracedDevice
	drv  *core.Drive
	opts core.Options

	cleanEvery   int64
	issued, done atomic.Int64
	cleanReq     chan struct{}
	cleanWG      sync.WaitGroup
	slice        atomic.Int32 // index of the current slice of the running phase
	stopFlag     atomic.Bool
	aborted      atomic.Bool
	unblock      func() // closes the clients' sockets so a stuck call returns

	mu       sync.Mutex
	failed   int64
	checks   int64 // post-run checks performed
	firstErr error
	invalid  string
	clean    cleanTotals
}

// cleanTotals sums the harness-driven cleaner passes.
type cleanTotals struct {
	busy, maxPause      time.Duration
	runs, copied, freed int64
}

// newEnv formats a fresh memory-backed drive configured as s4d does:
// defaults everywhere but the window, throttle penalties surfaced as
// retry hints, scrubber off. The store has no service-time model, so
// device latencies are this sandbox's memory copies, never a disk's.
func newEnv(cfg config, tr *tracer, window time.Duration, cleanEvery int64) (*env, error) {
	e := &env{cfg: cfg, tr: tr, clk: vclock.NewVirtual(), cleanEvery: cleanEvery,
		cleanReq: make(chan struct{}, 1)}
	e.dev = &tracedDevice{dev: disk.New(disk.SmallDisk(deviceBytes(1<<30, cfg.scale)), nil), t: tr}
	e.opts = core.Options{Clock: e.clk, Window: window, SurfaceThrottle: true}
	drv, err := core.Format(e.dev, e.opts)
	if err != nil {
		return nil, fmt.Errorf("format: %w", err)
	}
	e.drv = drv
	return e, nil
}

// deviceBytes shrinks a device for scaled-down runs, though not as far as
// the populations: formatting and opening cost by the device's size.
func deviceBytes(full int64, scale float64) int64 {
	return int64(float64(full) * max(scale, 0.125))
}

// fail records one failed op or check.
func (e *env) fail(err error) {
	e.mu.Lock()
	e.failed++
	if e.firstErr == nil {
		e.firstErr = err
	}
	if errors.Is(err, types.ErrNoSpace) {
		e.invalid = "drive ran out of space: the run is mis-sized, not slow"
	}
	e.mu.Unlock()
}

// check counts one post-run check and its failure, if any.
func (e *env) check(err error) {
	e.mu.Lock()
	e.checks++
	e.mu.Unlock()
	if err != nil {
		e.fail(err)
	}
}

// tick advances virtual time by one op and, every cleanEvery ops, asks
// the cleaner to run: version age, the detection window and what the
// cleaner may reclaim are functions of the op index, not of how fast
// this machine is.
func (e *env) tick() {
	probe.maybeSample()
	e.clk.Advance(opTick)
	if n := e.issued.Add(1); e.cleanEvery > 0 && n%e.cleanEvery == 0 {
		if e.cfg.clients == 1 {
			e.cleanOnce() // inline, so a one-client pass repeats exactly
			return
		}
		select {
		case e.cleanReq <- struct{}{}:
		default: // a pass is already pending
		}
	}
}

func (e *env) startCleaner() {
	e.cleanWG.Add(1)
	go func() {
		defer e.cleanWG.Done()
		for range e.cleanReq {
			e.cleanOnce()
		}
	}()
}

func (e *env) stopCleaner() {
	close(e.cleanReq)
	e.cleanWG.Wait()
}

func (e *env) cleanOnce() {
	s := e.tr.enterDrive(e.tr.begin(spanClean, kNone, 0, 0))
	t0 := time.Now()
	cs, err := e.drv.CleanOnce()
	d := time.Since(t0)
	e.tr.endDrive(s)
	if err != nil {
		e.fail(fmt.Errorf("cleaner: %w", err))
	}
	e.mu.Lock()
	e.clean.runs++
	e.clean.busy += d
	e.clean.maxPause = max(e.clean.maxPause, d)
	e.clean.copied += int64(cs.BlocksCopied)
	e.clean.freed += int64(cs.SegmentsFreed)
	e.mu.Unlock()
}

// recorder holds one client's measurements; only its goroutine writes it.
type recorder struct {
	lat       [nKinds][]float64 // µs
	sl        [nKinds][]int32   // the slice each sample completed in
	ops       int64
	userBytes int64 // payload bytes written
}

// timed issues one client op: it ticks the clock, publishes the open
// client.op span for the server-side wrappers, and times fn as the
// caller waits for it.
func (e *env) timed(c int, rec *recorder, kind opKind, handle uint64, fn func() error) error {
	e.tick()
	slot := &e.tr.clients[c]
	root := e.tr.begin(spanClient, kind, 0, 0)
	slot.handle.Store(handle)
	slot.id.Store(root.ID)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	slot.id.Store(0)
	e.tr.end(root)
	rec.lat[kind] = append(rec.lat[kind], float64(d)/1e3)
	rec.sl[kind] = append(rec.sl[kind], e.slice.Load())
	rec.ops++
	e.done.Add(1)
	if err != nil {
		e.fail(fmt.Errorf("%s: %w", kindNames[kind], err))
	}
	return err
}

// slice is one sliceLen stretch of a phase. The timed end-to-end metrics
// are computed per slice, brought to a quiet machine's speed by the
// slice's own slowdown (calibrate.go), and reported as the median over a
// run's slices. Work that recurs within every slice — cleaner passes,
// collections, forces — is in every slice's figure.
type slice struct {
	dur    time.Duration
	ops    int64
	cpu    time.Duration
	slow   float64 // slowdown of the machine during the slice
	traced bool
}

// phase is what one measured (or ramp) phase produced.
type phase struct {
	wall       time.Duration
	recs       []*recorder
	slices     []slice
	mem0, mem1 runtime.MemStats
	dev        devCounts
	st0, st1   core.Stats
	clean      cleanTotals // the cleaner's work during the phase
	rssMB      float64
}

func (p *phase) ops() int64 {
	var n int64
	for _, r := range p.recs {
		n += r.ops
	}
	return n
}

// run drives the clients in a closed loop: each goroutine issues its
// next op when the previous one returned. It ends after seconds (or when
// every client has issued ops), and aborts when no op has completed for
// stallLimit — nfsv2.Client has no retransmit and no deadline, so a
// dropped datagram would otherwise hang the pipeline. A traced timed run
// records spans in every other slice, so that its two halves give the
// tracing overhead.
func (e *env) run(seconds float64, ops int64, traced bool, body func(c int, rec *recorder, stop func() bool)) *phase {
	p := &phase{recs: make([]*recorder, e.cfg.clients)}
	e.stopFlag.Store(false)
	e.slice.Store(0)
	e.tr.on.Store(traced && ops > 0)
	runtime.ReadMemStats(&p.mem0)
	p.st0 = e.drv.GetStats()
	dev0 := e.dev.counts()
	e.mu.Lock()
	clean0 := e.clean
	e.clean.maxPause = 0
	e.mu.Unlock()
	probe.take()
	start := time.Now()

	var wg sync.WaitGroup
	for c := range p.recs {
		rec := &recorder{}
		p.recs[c] = rec
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body(c, rec, func() bool {
				if e.stopFlag.Load() {
					return true
				}
				return ops > 0 && rec.ops >= ops
			})
		}(c)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()

	watch := time.NewTicker(20 * time.Millisecond)
	defer watch.Stop()
	lastDone, lastMove := e.done.Load(), start
	sliceStart, sliceDone, sliceCPU := start, e.done.Load(), cpuTime()
	cut := func(now time.Time) {
		done, cpu := e.done.Load(), cpuTime()
		p.slices = append(p.slices, slice{now.Sub(sliceStart), done - sliceDone, cpu - sliceCPU,
			slowdown(speedShare[e.cfg.workload], probe.take()), e.tr.on.Load()})
		sliceStart, sliceDone, sliceCPU = now, done, cpu
		n := e.slice.Add(1)
		e.tr.on.Store(traced && (ops > 0 || n%2 == 1))
	}
loop:
	for {
		select {
		case <-finished:
			break loop
		case now := <-watch.C:
			if d := e.done.Load(); d != lastDone {
				lastDone, lastMove = d, now
			} else if now.Sub(lastMove) > stallLimit && !e.aborted.Load() {
				e.aborted.Store(true)
				e.stopFlag.Store(true)
				e.fail(fmt.Errorf("no op completed for %v; aborting", stallLimit))
				e.unblock()
			}
			if ops <= 0 && now.Sub(start) >= time.Duration(seconds*float64(time.Second)) {
				e.stopFlag.Store(true)
			} else if now.Sub(sliceStart) >= sliceLen {
				cut(now)
			}
		}
	}
	end := time.Now()
	cut(end)
	e.tr.on.Store(false)
	p.wall = end.Sub(start)
	p.dev = e.dev.counts().sub(dev0)
	p.st1 = e.drv.GetStats()
	e.mu.Lock()
	p.clean = cleanTotals{e.clean.busy - clean0.busy, e.clean.maxPause, e.clean.runs - clean0.runs,
		e.clean.copied - clean0.copied, e.clean.freed - clean0.freed}
	e.mu.Unlock()
	runtime.ReadMemStats(&p.mem1)
	p.rssMB = peakRSSMB()
	return p
}

// setups runs build n times, keeping the last, and returns the median
// build time at a quiet machine's speed: set-up is short next to a run,
// so one sample would be mostly noise. The probe is sampled before and
// after each build as well as by the build itself (env.tick), since some
// builds issue few ops.
func setups[T any](n int, build func() (T, error), drop func(T)) (T, float64, error) {
	const edge = 25 // samples taken on each side of a build
	var times []float64
	var last T
	for i := 0; i < n; i++ {
		if i > 0 {
			drop(last)
			var none T
			last = none
			debug.FreeOSMemory() // keep dropped stacks out of peak_rss_mb
		}
		probe.take()
		for j := 0; j < edge; j++ {
			probe.sample()
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return v, 0, err
		}
		d := time.Since(t0).Seconds()
		for j := 0; j < edge; j++ {
			probe.sample()
		}
		times = append(times, d/slowdown(setupShare, probe.take()))
		last = v
	}
	return last, median(times), nil
}

// quietSeconds is a phase's wall time at a quiet machine's speed. The ramp
// is counted into setup_s this way.
func (p *phase) quietSeconds() float64 {
	var s float64
	for _, sl := range p.slices {
		s += sl.dur.Seconds() / sl.slow
	}
	return s
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[min(len(s)-1, int(q*float64(len(s))))]
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
