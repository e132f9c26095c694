package main

import (
	"fmt"
	"time"

	"s4/internal/netfault"
	"s4/internal/s4rpc"
)

// runNetfault drives the RPC layer's exactly-once soak from the
// command line: a real TCP server behind a fault-injecting listener, a
// retrying client appending ordered markers, and an oracle (object
// content, audit log, version history, invariants, recovery replay)
// that fails loudly on any duplicated or lost acknowledged mutation.
func runNetfault(seed int64, ops int) error {
	if ops <= 0 {
		ops = 500
	}
	fmt.Printf("netfault soak: seed %d, %d ops\n", seed, ops)
	start := time.Now()
	res, err := s4rpc.RunFaultSoak(s4rpc.SoakConfig{
		Seed: seed, Ops: ops, Workers: 4, IOTimeout: time.Second,
		Fault: netfault.Config{
			DelayEvery: 40, MaxDelay: 2 * time.Millisecond,
			CutMin: s4rpc.SoakCutMin, CutMax: s4rpc.SoakCutMax,
			DropProb: 0.05,
		},
		Logf: func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		},
	})
	if err != nil {
		return fmt.Errorf("exactly-once violated: %w (result %+v)", err, res)
	}
	fmt.Printf("netfault soak PASSED in %v: %d/%d acked, %d present, "+
		"%d retries, %d reconnects over %d conns (%d cuts, %d drops, %d delays)\n",
		time.Since(start).Round(time.Millisecond),
		res.Acked, res.Attempted, res.Present,
		res.Client.Retries, res.Client.Reconnects,
		res.Fault.Conns, res.Fault.Cuts, res.Fault.Drops, res.Fault.Delays)
	return nil
}
