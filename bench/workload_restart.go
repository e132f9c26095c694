package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"s4/internal/core"
	"s4/internal/disk"
	"s4/internal/types"
	"s4/internal/vclock"
)

// restart_deep: core.Open on a crash image. Recovery is the one layer no
// request-path workload touches.

// rsImage is a crash image and the model of what it must hold.
type rsImage struct {
	dev  *tracedDevice
	opts core.Options
	ids  []types.ObjectID
	live [][]byte // current content of each object, tail writes included
	// History probes: object probe[i].obj read at probe[i].at is probe[i].data.
	probes []rsProbe
}

type rsProbe struct {
	obj  int
	at   types.Timestamp
	data []byte
}

var rsCred = types.Cred{User: 100, Client: 1}

// buildImage writes spec.versions small-patch versions with a checkpoint
// every spec.checkpoint, then a tail of spec.tail writes each acked by a
// Sync, and abandons the drive without Close: the memory disk is
// write-through, so exactly what was forced survives.
func buildImage(cfg config, tr *tracer, spec restartSpec) (*rsImage, error) {
	spec.versions = max(spec.objects, int(float64(spec.versions)*cfg.scale))
	spec.tail = max(1, int(float64(spec.tail)*cfg.scale))
	clk := vclock.NewVirtual()
	img := &rsImage{
		dev:  &tracedDevice{dev: disk.New(disk.SmallDisk(deviceBytes(spec.capacity, cfg.scale)), nil), t: tr},
		opts: core.Options{Clock: clk},
	}
	drv, err := core.Format(img.dev, img.opts)
	if err != nil {
		return nil, fmt.Errorf("format: %w", err)
	}
	acl := []types.ACLEntry{{User: rsCred.User, Perm: types.PermAll}}
	for o := 0; o < spec.objects; o++ {
		clk.Advance(opTick)
		id, err := drv.Create(rsCred, acl, nil)
		if err != nil {
			return nil, err
		}
		base := make([]byte, spec.objBytes)
		fillStream(base, key(cfg.seed, uint64(o)), 0)
		if err := drv.Write(rsCred, id, 0, base); err != nil {
			return nil, err
		}
		img.ids, img.live = append(img.ids, id), append(img.live, base)
	}
	g := newRestartGen(cfg.seed, spec)
	patch := make([]byte, spec.patch)
	probeEvery := max(1, spec.versions/spec.histProbes)
	for v := 0; v < spec.versions+spec.tail; v++ {
		o := g.next()
		probe.maybeSample()
		clk.Advance(opTick)
		fillStream(patch, key(cfg.seed, uint64(v), 1), 0)
		if err := drv.Write(rsCred, img.ids[o.Obj], uint64(o.Off), patch); err != nil {
			return nil, err
		}
		copy(img.live[o.Obj][o.Off:], patch)
		switch {
		case v >= spec.versions:
			if err := drv.Sync(rsCred); err != nil {
				return nil, err
			}
		case (v+1)%spec.checkpoint == 0 || v == spec.versions-1:
			if err := drv.Checkpoint(); err != nil {
				return nil, err
			}
		}
		if v < spec.versions && v%probeEvery == 0 {
			img.probes = append(img.probes, rsProbe{obj: o.Obj, at: vclock.TS(clk),
				data: append([]byte(nil), img.live[o.Obj]...)})
		}
	}
	return img, nil
}

// verify checks a recovered drive against the model: every object's live
// content (which covers every Sync-acked tail write) and the history
// probes.
func (img *rsImage) verify(drv *core.Drive, fail func(error)) (checks int64) {
	for o, id := range img.ids {
		data, err := drv.Read(rsCred, id, 0, uint64(len(img.live[o])), types.TimeNowest)
		if err != nil || !bytes.Equal(data, img.live[o]) {
			fail(fmt.Errorf("recovered object %d: live content differs (%v)", o, err))
		}
	}
	for _, p := range img.probes {
		data, err := drv.Read(rsCred, img.ids[p.obj], 0, uint64(len(p.data)), p.at)
		if err != nil || !bytes.Equal(data, p.data) {
			fail(fmt.Errorf("recovered object %d at %v: history differs (%v)", p.obj, p.at, err))
		}
	}
	return int64(len(img.ids) + len(img.probes))
}

func runRestart(cfg config, spec restartSpec) (*outcome, error) {
	tr := newTracer(cfg.trace)
	img, setupS, err := setups(cfg.setups, func() (*rsImage, error) { return buildImage(cfg, tr, spec) },
		func(*rsImage) {})
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}, tr: tr}
	fail := func(err error) {
		out.failed++
		if out.firstErr == nil {
			out.firstErr = err
		}
	}
	m := out.metrics
	rec := &recorder{}
	// Per open, at a quiet machine's speed: wall µs, CPU µs, and the wall µs
	// again by whether spans were recorded.
	var walls, cpus, onOpens, offOpens, slows []float64
	const edge = 50 // probe samples taken on each side of an open
	var dev devCounts
	var last core.Stats
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for n := int64(0); (cfg.ops > 0 && n < cfg.ops) || (cfg.ops <= 0 && time.Now().Before(deadline)); n++ {
		// A traced run records spans on every other open, so the two
		// halves give the tracing overhead.
		tr.on.Store(cfg.trace && n%2 == 1)
		probe.take()
		for i := 0; i < edge; i++ {
			probe.sample()
		}
		dev0, cpu0 := img.dev.counts(), cpuTime()
		s := tr.enterDrive(tr.begin(spanOpen, kNone, 0, 0))
		t0 := time.Now()
		drv, err := core.Open(img.dev, img.opts)
		d := time.Since(t0)
		tr.endDrive(s)
		cpu := cpuTime() - cpu0
		for i := 0; i < edge; i++ {
			probe.sample()
		}
		slow := slowdown(speedShare[cfg.workload], probe.take())
		slows = append(slows, slow)
		walls = append(walls, float64(d)/1e3/slow)
		cpus = append(cpus, float64(cpu.Microseconds())/slow)
		if tr.on.Load() {
			onOpens = append(onOpens, float64(d)/1e3/slow)
		} else {
			offOpens = append(offOpens, float64(d)/1e3/slow)
		}
		tr.on.Store(false)
		dev = dev.add(img.dev.counts().sub(dev0))
		rec.lat[kOpen] = append(rec.lat[kOpen], float64(d)/1e3)
		rec.ops++
		out.attempted++
		if err != nil {
			fail(fmt.Errorf("open: %w", err))
			continue
		}
		last = drv.GetStats()
		// Untimed: the recovered drive must hold what the image held. It is
		// then abandoned, so the image stays a crash image.
		out.attempted += img.verify(drv, fail)
		if n == 0 {
			if err := drv.CheckInvariants(); err != nil {
				fail(err)
			}
			out.attempted++
		}
	}
	runtime.ReadMemStats(&mem1)
	opens := float64(rec.ops)
	out.ops = rec.ops

	// An open is its own slice (harness.go): the timed metrics are the
	// median over the run's opens.
	m["setup_s"] = setupS
	m["typical_op_us"] = median(walls)
	m["ops_per_s"] = ratio(1e6, m["typical_op_us"])
	m["cpu_us_per_op"] = median(cpus)
	latencyMetrics(m, []*recorder{rec})
	out.sliceTypical, out.sliceCPU, out.sliceSlow = walls, cpus, slows
	m["device_bytes_per_op"] = ratio(float64(dev.readBytes+dev.writeBytes), opens)
	m["peak_rss_mb"] = peakRSSMB()

	m["proc.allocs_per_op"] = ratio(float64(mem1.Mallocs-mem0.Mallocs), opens)
	m["proc.alloc_bytes_per_op"] = ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc), opens)
	m["proc.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	// Open sets these once, so the last open's snapshot is per open.
	m["core.open_replay_entries"] = float64(last.RecoveryReplayEntries)
	m["core.open_index_loads"] = float64(last.IndexLoads)
	m["core.open_index_fallbacks"] = float64(last.IndexFallbacks)
	m["core.open_truncations"] = float64(last.RecoveryTruncations)
	m["seglog.free_segments_end"] = float64(last.FreeSegments)
	m["disk.open_reads"] = ratio(float64(dev.reads), opens)
	m["disk.open_read_bytes"] = ratio(float64(dev.readBytes), opens)
	m["disk.open_io_ms"] = ratio(float64(dev.ioNanos)/1e6, opens)
	m["disk.reads_per_op"] = m["disk.open_reads"]
	m["disk.read_bytes_per_op"] = m["disk.open_read_bytes"]
	m["disk.writes_per_op"] = ratio(float64(dev.writes), opens)
	m["disk.write_bytes_per_op"] = ratio(float64(dev.writeBytes), opens)
	m["disk.io_s"] = float64(dev.ioNanos) / 1e9
	if cfg.trace {
		sp := analyze(tr.spans)
		out.spans = &sp
		m["trace.spans"] = float64(sp.n)
		if len(onOpens) > 0 && len(offOpens) > 0 {
			m["trace.overhead_pct"] = 100 * (1 - median(offOpens)/median(onOpens))
		}
		m["core.open_self_ms"] = median(sp.self[spanKey{spanOpen, kNone}]) / 1e3
		m["core.self_share"] = ratio(sp.selfSum[spanOpen], sp.total[spanOpen])
		m["disk.share"] = ratio(sp.diskUnder[spanOpen], sp.total[spanOpen])
	}
	return out, nil
}
