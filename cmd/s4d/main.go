// Command s4d runs a self-securing storage drive: an S4 object store
// behind the security perimeter of the S4 RPC protocol (OSDI '00,
// Fig. 1a's network-attached drive).
//
//	s4d -image /var/s4/drive.img -size 4096 -listen :4455 \
//	    -adminkey admin-secret -clientkey 1=client1-secret \
//	    -window 168h
//
// With -shards N it runs N independent shard drives in one process:
// shard k backs image <image>.k and listens on port+k, each with its
// own segment log, cleaner, audit log, and exactly-once session state.
// A consistent-hash router (s4gate, or an embedded shard.Router) fans
// client traffic across them (DESIGN.md §13).
//
// The drive keeps every version of every object for the detection
// window, audits every request, and cleans aged history in the
// background. Stop with SIGINT/SIGTERM; state is checkpointed on exit.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"s4/internal/core"
	"s4/internal/disk"
	"s4/internal/s4rpc"
	"s4/internal/seglog"
)

// instance is one shard: a drive on its own image, served on its own
// address.
type instance struct {
	image string
	dev   disk.Device
	drv   *core.Drive
	srv   *s4rpc.Server
	ln    net.Listener
}

func main() {
	image := flag.String("image", "s4drive.img", "backing image file (shard k appends .k when -shards > 1)")
	sizeMB := flag.Int64("size", 1024, "image size in MB (new images)")
	listen := flag.String("listen", "127.0.0.1:4455", "TCP listen address (shard k listens on port+k)")
	shards := flag.Int("shards", 1, "independent shard drives to run in this process")
	adminKey := flag.String("adminkey", "", "administrator key (required)")
	clientKeys := flag.String("clientkey", "", "comma-separated id=key client credentials")
	window := flag.Duration("window", 7*24*time.Hour, "detection window")
	backend := flag.String("backend", "file", "seglog backing store: file (preallocated image) or mem (volatile, for testing)")
	format := flag.Bool("format", false, "format the image even if it has data")
	cleanEvery := flag.Duration("clean", 30*time.Second, "cleaner interval (0 disables)")
	scrubRate := flag.Float64("scrub", core.DefaultScrubRate, "background integrity-scrub pace in blocks/sec (0 = default, negative disables)")
	workers := flag.Int("workers", 0, "request-dispatch pool size per shard (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "request queue depth before shedding ErrBusy (0 = 4x workers)")
	connLimit := flag.Int("conn-limit", 0, "max concurrent connections per shard (0 = unlimited)")
	ioTimeout := flag.Duration("io-timeout", 30*time.Second, "per-frame I/O deadline, evicts stalled peers (0 disables)")
	drain := flag.Duration("drain", 10*time.Second, "graceful drain on shutdown: in-flight requests get their replies (0 = drop immediately)")
	throttleHint := flag.Bool("throttle-hint", true, "surface abuse throttling as fast-fail retry-after hints instead of in-band delays")
	flag.Parse()

	if *adminKey == "" {
		fmt.Fprintln(os.Stderr, "s4d: -adminkey is required (the security perimeter needs one)")
		os.Exit(2)
	}
	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "s4d: -shards must be at least 1")
		os.Exit(2)
	}

	keys := s4rpc.NewKeyring([]byte(*adminKey))
	if err := keys.AddClients(*clientKeys); err != nil {
		log.Fatalf("s4d: -clientkey: %v", err)
	}

	host, portStr, err := net.SplitHostPort(*listen)
	if err != nil {
		log.Fatalf("s4d: bad -listen %q: %v", *listen, err)
	}
	basePort, err := strconv.Atoi(portStr)
	if err != nil {
		log.Fatalf("s4d: -listen needs a numeric port with -shards: %v", err)
	}

	opts := core.Options{Window: *window, SurfaceThrottle: *throttleHint}
	insts := make([]*instance, *shards)
	for k := range insts {
		in := &instance{image: *image}
		if *shards > 1 {
			in.image = fmt.Sprintf("%s.%d", *image, k)
		}
		var dev disk.Device
		var err error
		switch *backend {
		case "file":
			dev, err = disk.OpenFile(in.image, *sizeMB<<20)
			if err != nil {
				log.Fatalf("s4d: open image %s: %v", in.image, err)
			}
		case "mem":
			// Volatile RAM store (no latency model): every restart is a
			// fresh format, so the drive's history guarantees only hold
			// for the life of the process. Testing and benchmarking only.
			dev = disk.New(disk.SmallDisk(*sizeMB<<20), nil)
			in.image = fmt.Sprintf("mem:%dMB", *sizeMB)
		default:
			log.Fatalf("s4d: unknown -backend %q (want file or mem)", *backend)
		}
		in.dev = dev
		fresh := *format
		if !fresh {
			// A read error is not a blank image: formatting would wipe
			// every version the image holds.
			if fresh, err = seglog.Blank(dev); err != nil {
				log.Fatalf("s4d: attach drive %s: %v", in.image, err)
			}
		}
		if fresh {
			in.drv, err = core.Format(dev, opts)
		} else {
			in.drv, err = core.Open(dev, opts)
		}
		if err != nil {
			log.Fatalf("s4d: attach drive %s: %v", in.image, err)
		}
		in.srv = s4rpc.NewServer(in.drv, keys)
		in.srv.SetWorkers(*workers)
		in.srv.SetQueueDepth(*queue)
		in.srv.SetConnLimit(*connLimit)
		in.srv.SetIOTimeout(*ioTimeout)
		addr := net.JoinHostPort(host, strconv.Itoa(basePort+k))
		in.ln, err = net.Listen("tcp", addr)
		if err != nil {
			log.Fatalf("s4d: listen %s: %v", addr, err)
		}
		insts[k] = in
		if *shards > 1 {
			log.Printf("s4d: shard %d serving %s on %s (window %v)", k, in.image, in.ln.Addr(), *window)
		} else {
			log.Printf("s4d: serving %s on %s (window %v)", in.image, in.ln.Addr(), *window)
		}
	}

	// The drive never starts the scrubber itself; the serving binary owns
	// the goroutine's lifetime (Close stops it).
	if *scrubRate >= 0 {
		for _, in := range insts {
			in.drv.StartScrubber(*scrubRate)
		}
	}

	stopClean := make(chan struct{})
	if *cleanEvery > 0 {
		go func() {
			ticker := time.NewTicker(*cleanEvery)
			defer ticker.Stop()
			for {
				select {
				case <-stopClean:
					return
				case <-ticker.C:
					for k, in := range insts {
						if cs, err := in.drv.CleanOnce(); err == nil &&
							(cs.SegmentsFreed > 0 || cs.ObjectsReaped > 0) {
							log.Printf("s4d: shard %d cleaner freed %d segments, reaped %d objects",
								k, cs.SegmentsFreed, cs.ObjectsReaped)
						}
					}
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		close(stopClean)
		var wg sync.WaitGroup
		for _, in := range insts {
			in := in
			wg.Add(1)
			go func() {
				defer wg.Done()
				if *drain > 0 {
					_ = in.srv.Shutdown(*drain)
				} else {
					_ = in.srv.Close()
				}
			}()
		}
		if *drain > 0 {
			log.Printf("s4d: draining (up to %v)", *drain)
		} else {
			log.Printf("s4d: shutting down")
		}
		wg.Wait()
	}()

	var serveWG sync.WaitGroup
	for _, in := range insts {
		in := in
		serveWG.Add(1)
		go func() {
			defer serveWG.Done()
			if err := in.srv.Serve(in.ln); err != nil {
				log.Printf("s4d: serve %s: %v", in.ln.Addr(), err)
			}
		}()
	}
	serveWG.Wait()
	for _, in := range insts {
		if err := in.drv.Close(); err != nil {
			log.Fatalf("s4d: checkpoint %s on shutdown: %v", in.image, err)
		}
		if c, ok := in.dev.(interface{ Close() error }); ok {
			if err := c.Close(); err != nil {
				log.Fatalf("s4d: close image %s: %v", in.image, err)
			}
		}
	}
}
