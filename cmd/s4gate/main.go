// Command s4gate fronts a sharded S4 cluster with the single-drive
// protocol: clients speak ordinary s4d RPC to the gate, and a
// consistent-hash router fans each request out to the owning shard (or
// scatter-gathers whole-drive operations) over per-shard exactly-once
// sessions (DESIGN.md §13).
//
//	s4d   -image drive.img -shards 4 -listen 127.0.0.1:4460 \
//	      -adminkey admin-secret -clientkey 7=gate-secret &
//	s4gate -listen 127.0.0.1:4455 \
//	      -backends 127.0.0.1:4460,127.0.0.1:4461,127.0.0.1:4462,127.0.0.1:4463 \
//	      -gateid 7 -gatekey gate-secret -backend-adminkey admin-secret \
//	      -adminkey admin-secret -clientkey 1=client1-secret
//
// The gate authenticates its own clients with -adminkey/-clientkey
// exactly as s4d does, and authenticates itself to every shard as
// client -gateid with -gatekey (shard audit logs attribute gate
// traffic to that client identity; the per-request user rides through
// unchanged). Admin operations cross to the shards only when
// -backend-adminkey is set. The backend order is the ring order: it is
// part of the deployment's layout contract and must never be permuted.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"s4/internal/s4rpc"
	"s4/internal/shard"
	"s4/internal/types"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:4455", "TCP listen address for clients")
	backends := flag.String("backends", "", "comma-separated shard addresses in ring order (required)")
	gateID := flag.Uint("gateid", 1, "client id the gate presents to the shards")
	gateKey := flag.String("gatekey", "", "client key the gate presents to the shards (required)")
	backendAdmin := flag.String("backend-adminkey", "", "admin key for the shards (empty: admin ops fail at the gate)")
	adminKey := flag.String("adminkey", "", "administrator key for the gate's own clients (required)")
	clientKeys := flag.String("clientkey", "", "comma-separated id=key credentials for the gate's own clients")
	callTimeout := flag.Duration("call-timeout", 30*time.Second, "per-call deadline against a shard")
	fanTimeout := flag.Duration("fan-timeout", 30*time.Second, "per-shard deadline inside scatter-gather operations")
	maxFan := flag.Int("max-fan", 0, "max concurrent shards per scatter-gather (0 = default)")
	retries := flag.Int("retries", 8, "attempts per shard call across reconnects")
	workers := flag.Int("workers", 0, "request-dispatch pool size (0 = GOMAXPROCS)")
	ioTimeout := flag.Duration("io-timeout", 30*time.Second, "per-frame I/O deadline toward clients (0 disables)")
	drain := flag.Duration("drain", 10*time.Second, "graceful drain on shutdown (0 = drop immediately)")
	flag.Parse()

	if *backends == "" || *gateKey == "" || *adminKey == "" {
		fmt.Fprintln(os.Stderr, "s4gate: -backends, -gatekey, and -adminkey are required")
		os.Exit(2)
	}

	var shards []s4rpc.Handler
	var remotes []*shard.Remote
	for i, addr := range strings.Split(*backends, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		rm, err := shard.NewRemote(shard.RemoteConfig{
			Addr:        addr,
			Client:      types.ClientID(*gateID),
			Key:         []byte(*gateKey),
			AdminKey:    []byte(*backendAdmin),
			CallTimeout: *callTimeout,
			MaxAttempts: *retries,
		})
		if err != nil {
			log.Fatalf("s4gate: shard %d (%s): %v", i, addr, err)
		}
		remotes = append(remotes, rm)
		shards = append(shards, rm.Do)
	}
	if len(shards) == 0 {
		log.Fatalf("s4gate: no shard addresses in -backends")
	}

	router, err := shard.New(shards, shard.Options{MaxFan: *maxFan, FanTimeout: *fanTimeout})
	if err != nil {
		log.Fatalf("s4gate: router: %v", err)
	}

	keys := s4rpc.NewKeyring([]byte(*adminKey))
	if err := keys.AddClients(*clientKeys); err != nil {
		log.Fatalf("s4gate: -clientkey: %v", err)
	}

	srv := s4rpc.NewHandlerServer(router.Do, keys)
	srv.SetWorkers(*workers)
	srv.SetIOTimeout(*ioTimeout)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("s4gate: listen: %v", err)
	}
	log.Printf("s4gate: routing %d shards on %s", router.Shards(), ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		if *drain > 0 {
			log.Printf("s4gate: draining (up to %v)", *drain)
			_ = srv.Shutdown(*drain)
		} else {
			_ = srv.Close()
		}
	}()
	if err := srv.Serve(ln); err != nil {
		log.Printf("s4gate: serve: %v", err)
	}
	for _, rm := range remotes {
		_ = rm.Close()
	}
}
