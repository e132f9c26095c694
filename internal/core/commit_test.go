package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"s4/internal/disk"
	"s4/internal/types"
	"s4/internal/vclock"
)

// Tests for the group-commit write pipeline (DESIGN.md §11): commit
// tickets, coalesced device forces, the dirty-object set, and the
// decoupled flush's crash consistency.

// TestGroupCommitCoalesces runs rounds of 16 simultaneous syncers and
// checks the commit-ticket protocol batches them: every Sync call is
// accounted as exactly one batch leader or one coalesced follower, and
// the device sees fewer forces than there were Sync calls.
func TestGroupCommitCoalesces(t *testing.T) {
	e := newTestDrive(t)
	const syncers = 16
	rounds := 30 / stressScale()

	ids := make([]types.ObjectID, syncers)
	creds := make([]types.Cred, syncers)
	for i := range ids {
		creds[i] = types.Cred{User: types.UserID(100 + i), Client: types.ClientID(i + 1)}
		id, err := e.d.Create(creds[i], nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	s0 := e.d.GetStats()

	var syncCalls int
	for r := 0; r < rounds; r++ {
		// Barrier per round so all 16 Syncs are genuinely in flight
		// together — the shape the ticket protocol exists for.
		var wg sync.WaitGroup
		errs := make(chan error, syncers)
		for i := 0; i < syncers; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				data := bytes.Repeat([]byte{byte(i), byte(r)}, 512)
				if err := e.d.Write(creds[i], ids[i], 0, data); err != nil {
					errs <- fmt.Errorf("writer %d round %d: %w", i, r, err)
					return
				}
				if err := e.d.Sync(creds[i]); err != nil {
					errs <- fmt.Errorf("syncer %d round %d: %w", i, r, err)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		syncCalls += syncers
		e.tick()
	}

	s := e.d.GetStats()
	batches := s.CommitBatches - s0.CommitBatches
	coalesced := s.SyncsCoalesced - s0.SyncsCoalesced
	forces := s.DeviceForces - s0.DeviceForces
	if batches+coalesced != int64(syncCalls) {
		t.Fatalf("accounting: %d batches + %d coalesced != %d Sync calls",
			batches, coalesced, syncCalls)
	}
	if coalesced == 0 {
		t.Fatalf("no Sync coalesced across %d concurrent calls", syncCalls)
	}
	if forces >= int64(syncCalls) {
		t.Fatalf("%d device forces for %d Sync calls: group commit is not batching",
			forces, syncCalls)
	}
	if batches < 1 {
		t.Fatal("no commit batches recorded")
	}

	// Coalesced durability is real durability: everything survives a
	// crash.
	e.reopen()
	for i := range ids {
		want := bytes.Repeat([]byte{byte(i), byte(rounds - 1)}, 512)
		got, err := e.d.Read(creds[i], ids[i], 0, uint64(len(want)), types.TimeNowest)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("object %d after crash: err=%v content ok=%v", i, err, bytes.Equal(got, want))
		}
	}
}

// TestSyncErrorNotMaskedByCoalescing arms a device fault while a batch
// commits and checks no Sync call reports success spuriously: a caller
// whose data may not be durable must see the error (the leader does
// not advance the commit horizon on failure).
func TestSyncErrorNotMaskedByCoalescing(t *testing.T) {
	e := newTestDrive(t)
	id := e.create(alice)
	e.write(alice, id, 0, []byte("durable base"))
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	e.write(alice, id, 0, bytes.Repeat([]byte{0xAB}, 2048))
	e.dev.FailAfter(0, fmt.Errorf("force fault"))
	err := e.d.Sync(alice)
	e.dev.FailAfter(-1, nil)
	if err == nil {
		t.Fatal("Sync succeeded while the device force failed")
	}
	// The write-error latch makes the log unusable by design; a fresh
	// open of the same device must still recover the synced state.
	e.reopen()
	got, err := e.d.Read(alice, id, 0, 12, types.TimeNowest)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "durable base" && !bytes.Equal(got, bytes.Repeat([]byte{0xAB}, 12)) {
		t.Fatalf("post-crash content %q is neither version", got)
	}
}

// TestVectoredWriteCrossesSeal writes runs larger than a whole segment
// in one call, forcing AppendVec to seal mid-batch, and checks the
// content and its history survive recovery intact.
func TestVectoredWriteCrossesSeal(t *testing.T) {
	e := newTestDrive(t, func(o *Options) { o.SegBlocks = 8 })
	id := e.create(alice)
	// 6 blocks per write on 7 payload blocks per segment: every write
	// crosses a seal boundary somewhere.
	const blocks = 6
	var want []byte
	for r := 0; r < 5; r++ {
		want = bytes.Repeat([]byte{byte(0xC0 + r)}, blocks*int(types.BlockSize))
		e.write(alice, id, 0, want)
	}
	if err := e.d.Sync(alice); err != nil {
		t.Fatal(err)
	}
	e.reopen()
	got := e.read(alice, id, 0, uint64(len(want)), types.TimeNowest)
	if !bytes.Equal(got, want) {
		t.Fatal("multi-segment vectored write corrupted after recovery")
	}
	if err := e.d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushAppendOverlapStress hammers the decoupled flush: writers
// stage multi-block appends (which run with the log mutex only, outside
// any in-flight device write) while syncers force batches and a cleaner
// competes. Run under -race this exercises the flushBuf hand-off,
// the double-buffer seal swap, and the pad-slot reservation.
func TestFlushAppendOverlapStress(t *testing.T) {
	e := newTestDrive(t, func(o *Options) {
		o.SegBlocks = 8
		o.Window = 50 * time.Millisecond
	})
	scale := stressScale()
	const writers, syncers = 4, 4
	rounds := 60 / scale

	ids := make([]types.ObjectID, writers)
	creds := make([]types.Cred, writers)
	for i := range ids {
		creds[i] = types.Cred{User: types.UserID(100 + i), Client: types.ClientID(i + 1)}
		id, err := e.d.Create(creds[i], nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}

	errs := make(chan error, writers+syncers+1)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// 3 blocks: vectored, and every few appends cross a seal.
				data := bytes.Repeat([]byte{byte(w + 1), byte(r)}, 3*int(types.BlockSize)/2)
				if err := e.d.Write(creds[w], ids[w], 0, data); err != nil {
					errs <- fmt.Errorf("writer %d round %d: %w", w, r, err)
					return
				}
				e.tick()
			}
		}()
	}
	done := make(chan struct{})
	var swg sync.WaitGroup
	for s := 0; s < syncers; s++ {
		s := s
		swg.Add(1)
		go func() {
			defer swg.Done()
			cred := types.Cred{User: types.UserID(200 + s), Client: types.ClientID(20 + s)}
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := e.d.Sync(cred); err != nil {
					errs <- fmt.Errorf("syncer %d: %w", s, err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := e.d.CleanOnce(); err != nil {
					errs <- fmt.Errorf("cleaner: %w", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(done)
	swg.Wait()
	close(stop)
	cwg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for w := 0; w < writers; w++ {
		want := bytes.Repeat([]byte{byte(w + 1), byte(rounds - 1)}, 3*int(types.BlockSize)/2)
		got := e.read(creds[w], ids[w], 0, uint64(len(want)), types.TimeNowest)
		if !bytes.Equal(got, want) {
			t.Fatalf("writer %d: final content wrong", w)
		}
	}
	if err := e.d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMidGroupCommit records the device-write journal while
// concurrent writers and syncers drive group commits, then replays
// crash images sampled across the whole journal — including points that
// land inside a batch's device writes — and requires every image to
// recover and pass CheckInvariants.
func TestCrashMidGroupCommit(t *testing.T) {
	clk := vclock.NewVirtual()
	rec := disk.New(disk.SmallDisk(64<<20), nil)
	opts := Options{
		Clock:            clk,
		SegBlocks:        16,
		CheckpointBlocks: 64,
		Window:           time.Hour,
		BlockCacheBytes:  1 << 20,
		ObjectCacheCount: 64,
	}
	d, err := Format(rec, opts)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	rounds := 20 / stressScale()
	ids := make([]types.ObjectID, clients)
	creds := make([]types.Cred, clients)
	for i := range ids {
		creds[i] = types.Cred{User: types.UserID(100 + i), Client: types.ClientID(i + 1)}
		id, err := d.Create(creds[i], nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if err := d.Sync(types.AdminCred()); err != nil {
		t.Fatal(err)
	}
	rec.StartRecording()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				data := bytes.Repeat([]byte{byte(i + 1), byte(r)}, 1024)
				if err := d.Write(creds[i], ids[i], 0, data); err != nil {
					errs <- fmt.Errorf("writer %d: %w", i, err)
					return
				}
				if err := d.Sync(creds[i]); err != nil {
					errs <- fmt.Errorf("syncer %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	endTime := d.Now()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	writes := rec.Writes()
	if writes == 0 {
		t.Fatal("no device writes recorded")
	}
	// Sample ~64 crash points spread over the journal; every one must
	// recover to a consistent image.
	step := writes/64 + 1
	points := 0
	for k := 0; k <= writes; k += step {
		img, err := rec.ImageAt(k)
		if err != nil {
			t.Fatal(err)
		}
		iopts := opts
		iopts.Clock = vclock.NewVirtualAt(endTime.Time())
		drv, err := Open(img, iopts)
		if err != nil {
			t.Fatalf("crash point %d/%d: recovery failed: %v", k, writes, err)
		}
		if err := drv.CheckInvariants(); err != nil {
			t.Fatalf("crash point %d/%d: %v", k, writes, err)
		}
		if err := drv.Close(); err != nil {
			t.Fatalf("crash point %d/%d: close: %v", k, writes, err)
		}
		points++
	}
	t.Logf("verified %d crash points over %d device writes", points, writes)
}
