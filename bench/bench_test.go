package main

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"testing"
)

// program is the first n ops of every generator for one seed.
func program(seed int64, n int) []op {
	var ops []op
	gens := []func() op{
		newRPCGen(seed, 0, hotMixSpec).next,
		newRPCGen(seed, 1, churnSpec).next,
		newPostmarkGen(seed, 0, postmarkSpec).next,
		newRestartGen(seed, restartDeepSpec).next,
	}
	for _, next := range gens {
		for i := 0; i < n; i++ {
			ops = append(ops, next())
		}
	}
	return ops
}

// The seed is the only input to the op programs.
func TestSeedFixesProgram(t *testing.T) {
	a, b, c := program(1, 5000), program(1, 5000), program(2, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two programs")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave one program")
	}
}

// BENCHMARK.json is rendered from the tables in this package
// (go run . -benchmark-json > ../BENCHMARK.json).
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from the tables in metrics.go and main.go")
	}
}

// Every workload at about 1/100 scale: each metric of BENCHMARK.json is
// reported, finite; the trace is well-formed; nothing fails.
func TestSmoke(t *testing.T) {
	ops := map[string]int64{"rpc_hot_mix": 750, "rpc_churn_history": 180, "nfs_postmark": 1200, "restart_deep": 2}
	for _, w := range workloads {
		cfg := config{workload: w.Name, seed: 1, ops: ops[w.Name], clients: 2, trace: true, scale: 0.01, setups: 1}
		out, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if out.failed != 0 || out.invalid != "" {
			t.Errorf("%s: %d of %d failed (%v), invalid %q", w.Name, out.failed, out.attempted, out.firstErr, out.invalid)
		}
		for _, d := range endToEnd {
			if v, ok := out.metrics[d.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, present %v", w.Name, d.Name, v, ok)
			}
		}
		for traced, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
			r := resultOf(out, traced)
			if len(r.Metrics) != len(defs) || !r.Correct {
				t.Errorf("%s: result has %d metrics, want %d; correct %v", w.Name, len(r.Metrics), len(defs), r.Correct)
			}
			for _, d := range defs {
				if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s: metric %s reported %v with unit %q", w.Name, d.Name, ok, m.Unit)
				}
			}
		}
		sp := out.spans
		if sp == nil || sp.n == 0 {
			t.Fatalf("%s: no spans", w.Name)
		}
		if !sp.nested {
			t.Errorf("%s: a span reaches outside its parent", w.Name)
		}
		var self, roots float64
		for n := range sp.total {
			self, roots = self+sp.selfSum[n], roots+sp.rootSum[n]
		}
		if math.Abs(self-roots) > 1e-9*roots+1e-9 {
			t.Errorf("%s: self times sum to %.9f s, root spans to %.9f s", w.Name, self, roots)
		}
		if _, rpc := sp.total[spanRPCBack]; rpc != (w.Name[:3] == "rpc") {
			t.Errorf("%s: s4rpc.backend spans present: %v", w.Name, rpc)
		}
	}
}
