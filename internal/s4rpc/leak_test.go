package s4rpc

import (
	"net"
	"sync"
	"testing"
	"time"

	"s4/internal/core"
	"s4/internal/disk"
	"s4/internal/harness/leakcheck"
	"s4/internal/types"
	"s4/internal/vclock"
)

// TestShutdownLeavesNoGoroutines stands up a full server, runs traffic
// from several concurrent connections, each request on its connection
// goroutine under the server's run slots, then tears everything down
// and asserts the goroutine count returns to its pre-test baseline.
// Server shutdown has three moving parts that must all terminate — the
// accept loop, the per-connection goroutines (and any request still
// running on one), and Drive.Close — and a leak in any of them is a
// slow memory/fd exhaustion in the daemon.
//
// Unlike the other RPC tests, this one tears down in the test body
// (not t.Cleanup) so the leak check runs after everything has stopped.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	defer leakcheck.Check(t)()

	dev := disk.New(disk.SmallDisk(64<<20), nil)
	drv, err := core.Format(dev, core.Options{
		Clock: vclock.Wall{}, SegBlocks: 16, CheckpointBlocks: 16, Window: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := NewKeyring(adminKey)
	keys.AddClient(1, clientKey)
	srv := NewServer(drv, keys)
	srv.SetWorkers(4)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	const conns = 6
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr, 1, types.UserID(100+i), clientKey, false)
			if err != nil {
				t.Errorf("conn %d: dial: %v", i, err)
				return
			}
			defer c.Close()
			id, err := c.Create(nil, nil)
			if err != nil {
				t.Errorf("conn %d: create: %v", i, err)
				return
			}
			for op := 0; op < 20; op++ {
				if err := c.Write(id, 0, []byte{byte(i), byte(op)}); err != nil {
					t.Errorf("conn %d: write: %v", i, err)
					return
				}
				if _, err := c.Read(id, 0, 2, types.TimeNowest); err != nil {
					t.Errorf("conn %d: read: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// One connection left open across shutdown: Close must boot it, and
	// its handler goroutine must still exit.
	idle, err := Dial(addr, 1, 999, clientKey, false)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve returned: %v", err)
	}
	if err := drv.Close(); err != nil {
		t.Fatal(err)
	}
}
