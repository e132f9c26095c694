//go:build !race

// Package israce tells a test whether it runs under the race detector.
// Allocation gates on pooled state need to know: with the detector on,
// sync.Pool drops a quarter of what is Put, so a steady state that
// allocates nothing without it allocates a pooled object now and then.
package israce

const Enabled = false
