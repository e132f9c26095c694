package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// child runs this binary once, as the driver would, and parses the
// result line. Each run is its own process so that peak_rss_mb and the
// garbage collector start fresh.
func child(args ...string) (result, error) {
	var r result
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if jerr := json.Unmarshal(lines[len(lines)-1], &r); jerr != nil {
		return r, fmt.Errorf("%v: no result line (%v)", args, err)
	}
	return r, err
}

// spread is the distance between the first and third quartile as a share
// of the median, with quartiles as Python's statistics.quantiles(v, n=4)
// gives them; with fewer than four values it is (max-min)/median.
func spread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 4 {
		return ratio(s[n-1]-s[0], median(s))
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		d := float64(i*(n+1) - j*4)
		j = min(max(j, 1), n-1)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return ratio(q(3)-q(1), q(2))
}

// selfCheck is -repeat: the acceptance check of the benchmark itself.
func selfCheck(cfg config, k int) int {
	bad := 0
	seconds := fmt.Sprint(cfg.seconds)
	for _, w := range workloads {
		vals := map[string][]float64{}
		for i := 0; i < k; i++ {
			r, err := child("--workload", w.Name, "--seed", fmt.Sprint(cfg.seed+int64(i)), "--seconds", seconds, "--trace", "0")
			if err != nil || !r.Correct {
				fmt.Printf("%s seed %d: FAILED (%v), %d of %d failed\n", w.Name, cfg.seed+int64(i), err, r.Failed, r.Attempted)
				bad++
				continue
			}
			for name, m := range r.Metrics {
				vals[name] = append(vals[name], m.Value)
			}
		}
		for _, d := range endToEnd {
			v := vals[d.Name]
			if len(v) == 0 {
				continue
			}
			sp := spread(v)
			verdict := "ok"
			if d.Name != "setup_s" && sp > d.Bound {
				verdict = "SPREAD EXCEEDS BOUND"
				bad++
			}
			strs := make([]string, len(v))
			for i, x := range v {
				strs[i] = fmt.Sprintf("%.4g", x)
			}
			fmt.Printf("%-18s %-20s median %12.4f %-4s spread %6.2f%% bound %4.0f%% %s [%s]\n",
				w.Name, d.Name, median(v), d.Unit, 100*sp, 100*d.Bound, verdict, strings.Join(strs, " "))
		}
	}
	// Counts that must repeat exactly: one client, a fixed op count, the
	// cleaner run inline. A later change may rest a claim on these.
	exact := []string{"s4rpc.wire_bytes_per_op", "seglog.forces_per_op", "core.delta_blocks_per_write"}
	for _, w := range []string{"rpc_hot_mix", "rpc_churn_history"} {
		var runs [2]result
		for i := range runs {
			r, err := child("--workload", w, "--seed", fmt.Sprint(cfg.seed), "--clients", "1", "--ops", "4000", "--trace", "1")
			if err != nil {
				fmt.Printf("%s one-client pass: FAILED (%v)\n", w, err)
				bad++
			}
			runs[i] = r
		}
		for _, name := range exact {
			a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value
			verdict := "repeats exactly"
			if a != b {
				verdict = "DIFFERS"
				bad++
			}
			fmt.Printf("%-18s %-30s %14.4f %14.4f %s\n", w, name, a, b, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("self-check: %d problems\n", bad)
		return 1
	}
	fmt.Println("self-check: every end-to-end metric repeats within its bound")
	return 0
}
