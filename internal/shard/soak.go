package shard

import (
	"fmt"
	"time"

	"s4/internal/s4rpc"
)

// SoakConfig parameterizes one sharded network-fault soak
// (RunShardFaultSoak); its fields are s4rpc.SoakConfig's.
type SoakConfig = s4rpc.SoakConfig

// SoakResult reports what one sharded soak run did and survived.
type SoakResult = s4rpc.SoakResult

// RunShardFaultSoak is the sharded exactly-once proof: s4rpc.RunFaultSoak
// with the workers reaching the shards through a Router of per-shard
// Remote sessions, and a kill of one shard mid-soak. Zero fields take
// these defaults: 4 shards, 2 objects a shard (so every shard very
// likely owns one), 120 ops an object, and the victim blackholed for
// 1,200 ms once a quarter of the work is acked.
func RunShardFaultSoak(cfg SoakConfig) (SoakResult, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Objects <= 0 {
		cfg.Objects = 2 * cfg.Shards
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 120
	}
	if cfg.KillFor <= 0 {
		cfg.KillFor = 1200 * time.Millisecond
	}
	cfg.Connect = connectRouter
	return s4rpc.RunFaultSoak(cfg)
}

// connectRouter dials one Remote per shard and routes over them.
func connectRouter(addrs []string, base s4rpc.Config) (s4rpc.SoakConn, error) {
	remotes := make([]*Remote, 0, len(addrs))
	closeAll := func() error {
		for _, rm := range remotes {
			_ = rm.Close()
		}
		return nil
	}
	handlers := make([]s4rpc.Handler, len(addrs))
	for i, addr := range addrs {
		rm, err := s4rpc.SoakDial(func() (*Remote, error) {
			cfg := base
			cfg.Addr, cfg.MaxAttempts = addr, 80
			return NewRemote(RemoteConfig{Config: cfg})
		})
		if err != nil {
			closeAll()
			return s4rpc.SoakConn{}, fmt.Errorf("dial shard %d: %w", i, err)
		}
		remotes = append(remotes, rm)
		handlers[i] = rm.Do
	}
	router, err := New(handlers, Options{FanTimeout: 30 * time.Second})
	if err != nil {
		closeAll()
		return s4rpc.SoakConn{}, fmt.Errorf("router: %w", err)
	}
	return s4rpc.SoakConn{Do: router.Do, ShardOf: router.ShardOf, Close: closeAll}, nil
}
