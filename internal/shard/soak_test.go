package shard

import (
	"os"
	"strconv"
	"testing"
	"time"

	"s4/internal/netfault"
	"s4/internal/s4rpc"
)

// TestShardFaultSoak is the kill-one-shard recovery proof: a 4-shard
// router under continuous network faults has one shard blackholed
// mid-soak and restored, and the run must show healthy shards
// acknowledging work throughout the outage while every shard's
// exactly-once oracle, invariants, and recovery replay hold. Runs
// under -race in CI.
func TestShardFaultSoak(t *testing.T) {
	ops := 50
	if testing.Short() {
		ops = 30
	}
	res, err := RunShardFaultSoak(SoakConfig{
		Seed: 1, Ops: ops,
		KillFor: 800 * time.Millisecond,
		Fault: netfault.Config{
			DelayEvery: 40, MaxDelay: 2 * time.Millisecond,
			CutMin: s4rpc.SoakCutMin, CutMax: s4rpc.SoakCutMax,
			DropProb: 0.03,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("shard soak violated its oracle: %v (result %+v)", err, res)
	}
	if res.Acked < res.Attempted*6/10 {
		t.Fatalf("only %d/%d ops acked: the cluster barely made progress", res.Acked, res.Attempted)
	}
	var cuts, drops uint64
	for _, f := range res.Fault {
		cuts += f.Cuts
		drops += f.Drops
	}
	if cuts == 0 {
		t.Fatalf("fault mix degenerate — no connection cuts across any shard: %+v", res.Fault)
	}
	_ = drops // the blackhole window forces drops on the victim regardless of DropProb
	t.Logf("shard soak result: %+v", res)
}

// TestShardFaultSoakSeeds sweeps seeds and kill windows in the nightly
// soak so one lucky schedule cannot carry the proof.
func TestShardFaultSoakSeeds(t *testing.T) {
	if os.Getenv("S4_NETFAULT_LONG") == "" {
		t.Skip("multi-seed shard soak runs only with S4_NETFAULT_LONG=1")
	}
	for seed := int64(2); seed <= 4; seed++ {
		seed := seed
		t.Run("seed"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			res, err := RunShardFaultSoak(SoakConfig{
				Seed: seed, Ops: 250, Shards: 4,
				KillFor: 2 * time.Second,
				Fault: netfault.Config{
					DelayEvery: 50, MaxDelay: time.Millisecond,
					CutMin: s4rpc.SoakCutMin, CutMax: s4rpc.SoakCutMax, DropProb: 0.05,
				},
				Logf: t.Logf,
			})
			if err != nil {
				t.Fatalf("seed %d: %v (result %+v)", seed, err, res)
			}
		})
	}
}
