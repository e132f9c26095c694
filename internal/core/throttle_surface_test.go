package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"s4/internal/throttle"
	"s4/internal/types"
)

// TestSurfaceThrottleReturnsRetryableError proves the SurfaceThrottle
// mode: a penalized mutation fails fast with a RetryableError wrapping
// ErrThrottled carrying the delay, executes nothing, and never serves
// the penalty in-band (the virtual clock must not advance).
func TestSurfaceThrottleReturnsRetryableError(t *testing.T) {
	e := newTestDrive(t, func(o *Options) {
		o.Window = 24 * time.Hour
		o.SurfaceThrottle = true
		o.throttleCfg = &throttle.Config{
			PoolBytes:  2 << 20,
			PressureAt: 0.5,
			FairShare:  64 << 10,
			HalfLife:   10 * time.Second,
			MaxDelay:   250 * time.Millisecond,
		}
	})
	id := e.create(alice)
	payload := bytes.Repeat([]byte{1}, 4*types.BlockSize)

	var throttledErr error
	for i := 0; i < 400 && throttledErr == nil; i++ {
		if err := e.d.Write(alice, id, 0, payload); err != nil {
			throttledErr = err
		}
		e.clk.Advance(10 * time.Millisecond)
	}
	if throttledErr == nil {
		t.Fatal("history-pool abuser never throttled")
	}
	if !errors.Is(throttledErr, types.ErrThrottled) {
		t.Fatalf("throttled write returned %v, want ErrThrottled", throttledErr)
	}
	after, ok := types.RetryAfterHint(throttledErr)
	if !ok || after <= 0 {
		t.Fatalf("no retry-after hint on %v", throttledErr)
	}
	if !types.Retryable(throttledErr) {
		t.Fatalf("%v not classified retryable", throttledErr)
	}

	// The rejection must not have served the delay in-band: a repeat of
	// the same write fails again without the clock moving (an in-band
	// sleep would advance the virtual clock by the penalty).
	before := e.clk.Now()
	err := e.d.Write(alice, id, 0, payload)
	if !errors.Is(err, types.ErrThrottled) {
		t.Fatalf("second write: %v", err)
	}
	if moved := e.clk.Now().Sub(before); moved != 0 {
		t.Fatalf("surfaced throttle slept in-band for %v", moved)
	}

	// Versions written before the penalty engaged remain readable: the
	// rejection executed nothing and corrupted nothing.
	got := e.read(alice, id, 0, uint64(len(payload)), types.TimeNowest)
	if !bytes.Equal(got, payload) {
		t.Fatal("data wrong after throttled rejections")
	}

	// Admin mutations are exempt from throttling in either mode.
	if err := e.d.SetAttr(admin, id, []byte("forensics")); err != nil {
		t.Fatalf("admin mutation throttled: %v", err)
	}
}
