// Command bench is the S4 benchmark: four workloads through the stacks a
// client really uses, across real sockets, with every metric of
// BENCHMARK.json printed by name and every byte read checked. See
// README.md.
//
//	bench --workload rpc_hot_mix --seed 1 --seconds 10 --trace 0
//
// prints the end-to-end metrics as one JSON object on the last line of
// standard output; --trace 1 prints the per-layer metrics from a traced
// run instead and writes the spans to a file. --repeat K runs every
// workload K times, each with another seed, and checks that the
// end-to-end metrics repeat within their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// runSeconds is how long one run measures when the driver runs it.
const runSeconds = 24

var workloads = []struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}{
	{"rpc_hot_mix", "4 KB reads and overwrites that fit the block cache, over s4rpc/TCP: the wire layer is nearly all of every op"},
	{"rpc_churn_history", "small-diff span overwrites and time-qualified reads with delta history, over s4rpc/TCP: core does most of the work and the history pool does not fit the cache"},
	{"nfs_postmark", "PostMark transactions over NFSv2/UDP into the fused s4nfsd stack: bypasses s4rpc, pays s4fs translation and one device force per mutation"},
	{"restart_deep", "core.Open on a crash image with 20000 versions and a 256-write synced tail: recovery, which no request-path workload touches"},
}

func runWorkload(cfg config) (*outcome, error) {
	switch cfg.workload {
	case "rpc_hot_mix":
		return runRPC(cfg, hotMixSpec)
	case "rpc_churn_history":
		return runRPC(cfg, churnSpec)
	case "nfs_postmark":
		return runNFS(cfg, postmarkSpec)
	case "restart_deep":
		return runRestart(cfg, restartDeepSpec)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultOf selects the metrics a run reports: the end-to-end ones from
// an untraced run, the per-layer ones from a traced run.
func resultOf(out *outcome, traced bool) result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	r := result{Correct: out.failed == 0 && out.invalid == "", Attempted: max(out.attempted, 1),
		Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := out.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, r.Correct = 0, false
		}
		r.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return r
}

// environment is recorded with every run.
func environment(cfg config, out *outcome) map[string]any {
	env := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "clients": cfg.clients,
		"trace": cfg.trace, "measured_ops": out.ops,
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"commit": "unknown", "kernel": "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(b))
	}
	return env
}

func main() {
	var cfg config
	var trace, repeat int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: rpc_hot_mix, rpc_churn_history, nfs_postmark or restart_deep")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the op-program generators")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
	flag.Int64Var(&cfg.ops, "ops", 0, "measure a fixed number of ops per client instead of a time")
	flag.IntVar(&cfg.clients, "clients", 2, "closed-loop clients, one connection each")
	flag.StringVar(&cfg.traceOut, "trace-out", ".bench_build", "directory the span trace is written to")
	flag.IntVar(&repeat, "repeat", 0, "run every workload this many times, with seeds seed, seed+1, ..., and check the spread of each end-to-end metric against its bound")
	printJSON := flag.Bool("benchmark-json", false, "print BENCHMARK.json as this program defines it and exit")
	flag.Parse()
	if *printJSON {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	cfg.trace, cfg.scale, cfg.setups = trace == 1, 1, 3
	if cfg.clients < 1 || cfg.clients > maxClients {
		fmt.Fprintf(os.Stderr, "bench: -clients must be 1..%d\n", maxClients)
		os.Exit(2)
	}
	if repeat > 0 {
		os.Exit(selfCheck(cfg, repeat))
	}

	out, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload, err)
		os.Exit(2)
	}
	if cfg.trace {
		if err := os.MkdirAll(cfg.traceOut, 0o755); err == nil {
			err = out.tr.write(cfg.traceOut + "/trace_" + cfg.workload + ".jsonl")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing trace: %v\n", err)
			os.Exit(2)
		}
	}
	printAll(cfg, out)
	if out.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d failed, first: %v\n", cfg.workload, out.failed, out.attempted, out.firstErr)
	}
	if out.invalid != "" {
		fmt.Fprintf(os.Stderr, "bench: %s: run is invalid: %s\n", cfg.workload, out.invalid)
	}
	r := resultOf(out, cfg.trace)
	line, _ := json.Marshal(r)
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

// printAll prints the environment and every metric the run produced, by
// name with its unit, ahead of the result line.
func printAll(cfg config, out *outcome) {
	env, _ := json.Marshal(environment(cfg, out))
	fmt.Printf("env %s\n", env)
	fmt.Printf("slices ops_per_s %.0f\nslices typical_op_us %.1f\nslices cpu_us_per_op %.1f\nslices slowdown %.2f\n",
		out.sliceOps, out.sliceTypical, out.sliceCPU, out.sliceSlow)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := out.metrics[d.Name]; ok {
				fmt.Printf("%-36s %14.4f %s\n", d.Name, v, d.Unit)
			}
		}
	}
	if out.spans != nil {
		for n := spanClient; n <= spanOpen; n++ {
			if t, ok := out.spans.total[n]; ok {
				fmt.Printf("span %-16s total %9.4f s  self %9.4f s  as root %9.4f s\n",
					n, t, out.spans.selfSum[n], out.spans.rootSum[n])
			}
		}
	}
}

// benchmarkJSON renders BENCHMARK.json from the tables in this package.
func benchmarkJSON() []byte {
	doc := map[string]any{
		"command": []string{"bash", "bench/run.sh"}, "paths": []string{"bench"}, "run_seconds": runSeconds,
		"workloads": workloads, "end_to_end": endToEnd, "per_layer": perLayer,
	}
	b, _ := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n')
}
