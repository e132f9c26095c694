package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The sandbox's two processors are hardware threads of a shared host. When
// a neighbour is busy on the other thread of a core, code on this one runs
// up to twice as slowly, half a second to minutes at a time, and the guest
// sees no steal time. The benchmark therefore times a fixed reference
// kernel beside the work it measures, and reports the timed end-to-end
// metrics at the speed of a quiet machine (README.md, "How the timed
// metrics are made steady").

// spinIters and spinQuietUS define the reference kernel: four independent
// integer chains, the kind of code a busy sibling thread slows most, and
// what one call costs on this sandbox when the sibling is idle.
const (
	spinIters   = 50_000
	spinQuietUS = 38.0
	probeGap    = 2 * time.Millisecond // least time between two samples taken by maybeSample
)

var spinSink atomic.Uint64

func spin() {
	var a, b, c, d uint64 = 88172645463325252, 1234567, 7654321, 99999
	for i := uint64(0); i < spinIters; i++ {
		a += i ^ b
		b += i | 1
		c ^= i + 3
		d += i & 7
	}
	spinSink.Store(a + b + c + d)
}

// speedShare is the share of a workload's time that slows as the reference
// kernel does; the rest (system calls, wake-ups across cores) does not care
// what the sibling thread is doing. Each was fitted once, at HEAD, over
// fifty runs made in five batches across a day, as the value that brought
// the runs of every batch closest together.
var speedShare = map[string]float64{
	"rpc_hot_mix":       0.7,
	"rpc_churn_history": 0.4,
	"nfs_postmark":      0.2,
	"restart_deep":      0.6,
}

// speedProbe collects timings of the reference kernel, in µs. The
// goroutines doing the measured work take the samples themselves, between
// ops, so a sample sees the processor its caller runs on.
type speedProbe struct {
	last atomic.Int64 // when the latest sample was taken, UnixNano
	mu   sync.Mutex
	us   []float64
}

var probe speedProbe

func (p *speedProbe) sample() {
	t0 := time.Now()
	spin()
	d := time.Since(t0)
	p.last.Store(t0.UnixNano())
	p.mu.Lock()
	p.us = append(p.us, float64(d)/1e3)
	p.mu.Unlock()
}

// maybeSample takes a sample unless one was taken within probeGap: the
// probe's cost is a fixed 2 % of one processor, whatever an op costs.
func (p *speedProbe) maybeSample() {
	now, last := time.Now().UnixNano(), p.last.Load()
	if now-last >= int64(probeGap) && p.last.CompareAndSwap(last, now) {
		p.sample()
	}
}

// take returns the samples collected since the last take.
func (p *speedProbe) take() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	us := p.us
	p.us = nil
	return us
}

// setupShare is speedShare for set-up, whatever the workload: formatting
// and populating a fresh memory device is page faults and allocation more
// than computing.
const setupShare = 0.4

// slowdown is the factor by which work of which share slows as the
// reference kernel does ran slower than it would have on a quiet machine,
// given the probe's samples from that stretch. The median sample is used:
// a spin that an interrupt or another thread cut into says nothing about
// the processor's speed.
func slowdown(share float64, samples []float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	return 1 - share + share*median(samples)/spinQuietUS
}
