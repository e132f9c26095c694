// Package s4bench holds the testing.B entry points that regenerate the
// paper's figures (one benchmark per table/figure; DESIGN.md §4 maps
// each to its experiment). Benchmarks report virtual (simulated) time
// per workload as "vsec/op" so shapes can be compared across runs;
// cmd/s4bench prints the full tables.
//
// Run with:
//
//	go test -bench=. -benchmem
package s4bench

import (
	"fmt"
	"testing"
	"time"

	"s4/internal/capacity"
	"s4/internal/core"
	"s4/internal/disk"
	"s4/internal/harness"
	"s4/internal/s4fs"
	"s4/internal/types"
	"s4/internal/vclock"
	"s4/internal/workloads"
)

// benchScale keeps `go test -bench=.` minutes-fast; cmd/s4bench runs
// paper scale.
const benchScale = 0.25

func reportPhases(b *testing.B, rows []harness.PhaseTime) {
	b.Helper()
	for _, r := range rows {
		b.ReportMetric(r.Time.Seconds(), string(r.System)+"_"+r.Phase+"_vsec")
	}
}

// BenchmarkFig2MetadataEfficiency measures metadata bytes written per
// update under journal-based vs conventional versioning (Fig. 2).
func BenchmarkFig2MetadataEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig2(int(500*benchScale), 512<<20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.JournalPerUpdate, "journal_B/upd")
		b.ReportMetric(res.ConventionalPerUpd, "conventional_B/upd")
		b.ReportMetric(res.Amplification, "amplification_x")
	}
}

// BenchmarkFig3PostMark runs PostMark across the four server
// configurations (Fig. 3).
func BenchmarkFig3PostMark(b *testing.B) {
	pm := workloads.DefaultPostMark()
	pm.Files = int(float64(pm.Files) * benchScale)
	pm.Transactions = int(float64(pm.Transactions) * benchScale)
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig3(pm, 1<<30)
		if err != nil {
			b.Fatal(err)
		}
		reportPhases(b, res.Rows)
	}
}

// BenchmarkFig4SSHBuild runs the SSH-build phases across the four
// server configurations (Fig. 4).
func BenchmarkFig4SSHBuild(b *testing.B) {
	cfg := workloads.DefaultSSHBuild()
	cfg.SourceFiles = int(float64(cfg.SourceFiles) * benchScale)
	cfg.ConfigureProbes = int(float64(cfg.ConfigureProbes) * benchScale)
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig4(cfg, 1<<30)
		if err != nil {
			b.Fatal(err)
		}
		reportPhases(b, res.Rows)
	}
}

// BenchmarkFig5Cleaner sweeps capacity utilization with the cleaner
// idle-scheduled vs competing (Fig. 5).
func BenchmarkFig5Cleaner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig5([]float64{0.1, 0.4, 0.7}, int(10000*benchScale), 256<<20)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Points {
			slow := 0.0
			if p.TPSNoClean > 0 {
				slow = 1 - p.TPSClean/p.TPSNoClean
			}
			b.ReportMetric(slow*100, "slowdown%")
		}
	}
}

// BenchmarkFig6Audit measures the small-file microbenchmark with
// auditing off and on (Fig. 6).
func BenchmarkFig6Audit(b *testing.B) {
	mc := workloads.DefaultMicro()
	mc.Files = int(float64(mc.Files) * benchScale)
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig6(mc, 1<<30)
		if err != nil {
			b.Fatal(err)
		}
		for _, ph := range res.Phases {
			b.ReportMetric(res.Penalty(ph)*100, ph+"_penalty%")
		}
	}
}

// BenchmarkFig7Capacity measures differencing/compression factors on
// the synthetic tree evolution and projects detection windows (Fig. 7).
func BenchmarkFig7Capacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := capacity.MeasureFactors(5, 60, 1)
		if err != nil {
			b.Fatal(err)
		}
		ps := capacity.Project(10<<30, f.DiffFactor, f.CompoundFactor, capacity.PaperWorkloads())
		b.ReportMetric(f.DiffFactor, "diff_x")
		b.ReportMetric(f.CompoundFactor, "diff+comp_x")
		b.ReportMetric(ps[1].Baseline, "NT_baseline_days")
	}
}

// BenchmarkAblationBatching compares the S4-NFS configuration against
// the network-free drive (how much of the per-op cost is RPC framing).
func BenchmarkAblationBatching(b *testing.B) {
	pm := workloads.DefaultPostMark()
	pm.Files = 200
	pm.Transactions = 500
	for i := 0; i < b.N; i++ {
		for _, noNet := range []bool{false, true} {
			inst, err := harness.New(harness.Config{
				System: harness.S4NFS, DiskBytes: 256 << 20, NoNetwork: noNet,
			})
			if err != nil {
				b.Fatal(err)
			}
			p := workloads.NewPostMark(inst.FS, pm)
			mark := inst.Clock.Now()
			if err := p.CreatePhase(); err != nil {
				b.Fatal(err)
			}
			if err := p.TransactionPhase(); err != nil {
				b.Fatal(err)
			}
			name := "with_net_vsec"
			if noNet {
				name = "no_net_vsec"
			}
			b.ReportMetric(inst.Elapsed(mark).Seconds(), name)
			if inst.Drive != nil {
				_ = inst.Drive.Close()
			}
		}
	}
}

// BenchmarkAblationSegmentSize sweeps the drive's segment size, an
// ablation of the log-structuring design choice: bigger segments
// amortize seeks better until cleaning granularity starts to hurt. The
// largest, 96 blocks, stays below the 109 that one summary block can
// describe (Format refuses more).
func BenchmarkAblationSegmentSize(b *testing.B) {
	for _, segBlocks := range []int{16, 64, 96} {
		segBlocks := segBlocks
		b.Run(fmt.Sprintf("seg=%dKB", segBlocks*4), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clk := vclock.NewVirtual()
				dev := disk.New(disk.SmallDisk(256<<20), clk)
				drv, err := core.Format(dev, core.Options{
					Clock: clk, SegBlocks: segBlocks, Window: time.Hour,
					BlockCacheBytes: 16 << 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				fs, err := s4fs.Mkfs(drv, s4fs.Options{
					Cred: types.Cred{User: 1, Client: 1}, SyncEachOp: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				pm := workloads.DefaultPostMark()
				pm.Files = 300
				pm.Transactions = 800
				p := workloads.NewPostMark(fs, pm)
				mark := clk.Now()
				if err := p.CreatePhase(); err != nil {
					b.Fatal(err)
				}
				if err := p.TransactionPhase(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(clk.Now().Sub(mark).Seconds(), "vsec")
				_ = drv.Close()
			}
		})
	}
}
