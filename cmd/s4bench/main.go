// Command s4bench regenerates every figure of OSDI '00 §5 on the
// simulated testbed. Reported times are virtual (simulated-disk +
// modeled-network) seconds; compare shapes with the paper, not absolute
// values.
//
// Usage:
//
//	s4bench -fig 2|3|4|5|6|7         one figure
//	s4bench -all                     everything (the EXPERIMENTS.md run)
//	s4bench -fig 6 -macro            §5.1.4 application-level audit cost
//	s4bench -fig 5 -costs            §5.1.5 fundamental-cost derivation
//	s4bench -scale 0.2               shrink workloads (quick look)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"s4/internal/capacity"
	"s4/internal/harness"
	"s4/internal/workloads"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (2..7)")
	all := flag.Bool("all", false, "run every figure")
	macro := flag.Bool("macro", false, "with -fig 6: PostMark-level audit penalty (§5.1.4)")
	costs := flag.Bool("costs", false, "with -fig 5: fundamental-cost derivation (§5.1.5)")
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = paper scale)")
	disk := flag.Int64("disk", 2<<30, "simulated disk size for figs 3/4/6 in bytes")
	flag.Parse()

	if !*all && *fig == 0 {
		flag.Usage()
		os.Exit(2)
	}
	run := func(n int) {
		start := time.Now()
		if err := runFig(n, *scale, *disk, *macro, *costs); err != nil {
			fmt.Fprintf(os.Stderr, "fig %d: %v\n", n, err)
			os.Exit(1)
		}
		fmt.Printf("  [fig %d regenerated in %v wall time]\n\n", n, time.Since(start).Round(time.Millisecond))
	}
	if *all {
		for _, n := range []int{2, 3, 4, 5, 6, 7} {
			run(n)
		}
		return
	}
	run(*fig)
}

func runFig(n int, scale float64, disk int64, macro, costs bool) error {
	switch n {
	case 2:
		res, err := harness.RunFig2(int(500*scale), 512<<20)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
	case 3:
		pm := workloads.DefaultPostMark()
		pm.Files = int(float64(pm.Files) * scale)
		pm.Transactions = int(float64(pm.Transactions) * scale)
		res, err := harness.RunFig3(pm, disk)
		if err != nil {
			return err
		}
		fmt.Print(harness.RenderPhaseTable(
			fmt.Sprintf("Fig 3: PostMark (%d files, %d transactions)", pm.Files, pm.Transactions),
			res.Rows))
	case 4:
		cfg := workloads.DefaultSSHBuild()
		cfg.SourceFiles = int(float64(cfg.SourceFiles) * scale)
		cfg.ConfigureProbes = int(float64(cfg.ConfigureProbes) * scale)
		res, err := harness.RunFig4(cfg, disk)
		if err != nil {
			return err
		}
		fmt.Print(harness.RenderPhaseTable(
			fmt.Sprintf("Fig 4: SSH-build (%d source files)", cfg.SourceFiles), res.Rows))
	case 5:
		res, err := harness.RunFig5(nil, int(10000*scale), 512<<20)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		if costs {
			// The paper's worked example uses 60% and 80%; our sweep
			// tops out lower (see EXPERIMENTS.md), so the derivation
			// uses the two highest measured utilizations.
			n := len(res.Points)
			if n >= 2 {
				lo, hi := res.Points[n-2], res.Points[n-1]
				a, h, extra := res.FundamentalCosts(lo.Utilization, hi.Utilization)
				fmt.Printf("  §5.1.5: cleaning degradation %.0f%% at %.0f%% util, %.0f%% at %.0f%% util;\n"+
					"  history-pool share of cleaning overhead ≈ %.0f%%\n",
					a*100, lo.Utilization*100, h*100, hi.Utilization*100, extra*100)
			}
		}
	case 6:
		mc := workloads.DefaultMicro()
		mc.Files = int(float64(mc.Files) * scale)
		res, err := harness.RunFig6(mc, disk)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		if macro {
			pm := workloads.DefaultPostMark()
			pm.Files = int(float64(pm.Files) * scale)
			pm.Transactions = int(float64(pm.Transactions) * scale)
			mres, err := harness.RunMacroAudit(pm, disk)
			if err != nil {
				return err
			}
			fmt.Printf("  §5.1.4 macro: PostMark %.2fs -> %.2fs with auditing (%.1f%%)\n",
				mres.Off.Seconds(), mres.On.Seconds(), mres.Penalty*100)
		}
	case 7:
		days := int(7 * scale)
		if days < 3 {
			days = 3
		}
		f, err := capacity.MeasureFactors(days, int(120*scale)+20, 1)
		if err != nil {
			return err
		}
		ps := capacity.Project(10<<30, f.DiffFactor, f.CompoundFactor, capacity.PaperWorkloads())
		fmt.Print(capacity.Render(10<<30, f, ps))
	default:
		return fmt.Errorf("unknown figure %d", n)
	}
	return nil
}
