package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing is done entirely from the benchmark's own wrappers around the
// public seams between layers (wrap.go); nothing inside the program
// under test is instrumented. Spans are kept in memory and written out
// when the workload ends.

type spanName uint8

const (
	spanClient    spanName = iota + 1 // one client request, as the caller waits for it
	spanRPCBack                       // an s4rpc.Backend method: time inside core.Drive
	spanFS                            // an fsys.FileSys method called by the NFS server
	spanFSBackend                     // an s4fs.Backend method: time inside core.Drive
	spanDisk                          // a run of Device.ReadSectors or WriteSectors calls
	spanClean                         // one harness-driven Drive.CleanOnce
	spanOpen                          // one core.Open
)

var spanNames = [...]string{spanClient: "client.op", spanRPCBack: "s4rpc.backend", spanFS: "s4fs.op",
	spanFSBackend: "s4fs.backend", spanDisk: "disk.io", spanClean: "core.clean", spanOpen: "core.open"}

func (n spanName) String() string { return spanNames[n] }

// span is one timed interval. Op is the root span of the request it
// belongs to; Shared marks device I/O issued while two calls into the
// drive were in progress (group commit), which cannot be pinned on
// either. A disk.io span is a run of consecutive device calls of one
// kind under one parent: Start of the first, End of the last, Calls of
// them, and Busy, the time inside the device, which is what self times
// are computed from. The struct holds no pointers, so the collector
// never scans the span buffer.
type span struct {
	ID, Parent, Op uint64
	Start, End     int64 // ns since the tracer's epoch
	Busy           int64 // disk.io: summed duration of the calls
	Calls          uint32
	Name           spanName
	Kind           opKind
	Shared         bool
}

const maxClients = 8

// clientSlot publishes a client's open request so that spans recorded
// on server goroutines can name their cause. One op is in flight per
// client, so the link is exact.
type clientSlot struct {
	id     atomic.Uint64 // open client.op span, 0 when none or untraced
	handle atomic.Uint64 // NFS: the file handle the open call names
}

type tracer struct {
	on    atomic.Bool
	next  atomic.Uint64
	epoch time.Time

	mu    sync.Mutex
	spans []span

	clients [maxClients]clientSlot
	// The open s4fs.op span and its root (the NFS server loop is serial).
	fsOpen, fsOpenOp atomic.Uint64

	// Open drive-level spans, for attributing device I/O.
	driveMu    sync.Mutex
	driveCalls int               // calls into the drive in progress, traced or not
	driveOpen  map[uint64]uint64 // span id -> op id, of the traced ones
	cleanOpen  uint64
}

// newTracer makes a tracer. One that will record starts with room for
// 2^18 spans (16 MB), so a run's buffer is regrown once or twice, not
// twenty times, while clients wait on its lock.
func newTracer(record bool) *tracer {
	t := &tracer{epoch: time.Now(), driveOpen: make(map[uint64]uint64)}
	if record {
		t.spans = make([]span, 0, 1<<18)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span. A zero parent makes a root; roots are recorded
// only while tracing is on, children only under a recorded parent, so a
// request is traced whole or not at all.
func (t *tracer) begin(name spanName, kind opKind, parent, op uint64) span {
	if parent == 0 && !t.on.Load() {
		return span{}
	}
	s := span{ID: t.next.Add(1), Parent: parent, Op: op, Name: name, Kind: kind, Start: t.now()}
	if parent == 0 {
		s.Op = s.ID
	}
	return s
}

func (t *tracer) end(s span) {
	if s.ID == 0 {
		return
	}
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// endDisk closes a device call at time now, extending the previous span
// when that is the same kind of I/O under the same parent: one
// core.Open issues ~10^5 reads, and a span apiece would cost more than
// the tracing is allowed to.
func (t *tracer) endDisk(s span, now int64) {
	if s.ID == 0 {
		return
	}
	s.End, s.Busy, s.Calls = now, now-s.Start, 1
	t.mu.Lock()
	if n := len(t.spans); n > 0 {
		last := &t.spans[n-1]
		if last.Name == spanDisk && last.Parent == s.Parent && last.Kind == s.Kind && last.Shared == s.Shared {
			last.End, last.Busy, last.Calls = s.End, last.Busy+s.Busy, last.Calls+1
			t.mu.Unlock()
			return
		}
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// enterDrive notes a call into core.Drive; s, when recorded, becomes a
// candidate parent for device I/O. Pair it with endDrive.
func (t *tracer) enterDrive(s span) span {
	t.driveMu.Lock()
	t.driveCalls++
	if s.ID != 0 {
		t.driveOpen[s.ID] = s.Op
		if s.Name == spanClean {
			t.cleanOpen = s.ID
		}
	}
	t.driveMu.Unlock()
	return s
}

func (t *tracer) endDrive(s span) {
	t.driveMu.Lock()
	t.driveCalls--
	if s.ID != 0 {
		delete(t.driveOpen, s.ID)
		if t.cleanOpen == s.ID {
			t.cleanOpen = 0
		}
	}
	t.driveMu.Unlock()
	t.end(s)
}

// beginDisk opens a disk.io span. Its parent is the cleaner's span when
// one is open (CleanOnce holds the drive's exclusive lock for nearly all
// of it, so nobody else reaches the device), else the only open
// call into the drive when it is traced; with two calls in progress the
// I/O is recorded as shared.
//
// Start is set even when nothing is recorded (ID 0), so the device
// wrapper reads the clock twice per I/O, traced or not.
func (t *tracer) beginDisk(kind opKind) span {
	t.driveMu.Lock()
	var parent, op uint64
	shared := false
	switch {
	case len(t.driveOpen) == 0:
		t.driveMu.Unlock()
		return span{Start: t.now()}
	case t.cleanOpen != 0:
		parent, op = t.cleanOpen, t.driveOpen[t.cleanOpen]
	case len(t.driveOpen) == 1 && t.driveCalls == 1:
		for id, o := range t.driveOpen {
			parent, op = id, o
		}
	default:
		shared = true
	}
	t.driveMu.Unlock()
	s := span{ID: t.next.Add(1), Parent: parent, Op: op, Name: spanDisk, Kind: kind, Shared: shared, Start: t.now()}
	return s
}

// write dumps the spans as JSON lines:
// {"id":..,"parent":..,"op":..,"name":"..","kind":"..","start_ns":..,"end_ns":..}
// and, for disk.io, "shared", "calls" and "busy_ns".
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"op":%d,"name":%q,"kind":%q,"start_ns":%d,"end_ns":%d`,
			s.ID, s.Parent, s.Op, s.Name, kindNames[s.Kind], s.Start, s.End)
		if s.Name == spanDisk {
			fmt.Fprintf(w, `,"shared":%t,"calls":%d,"busy_ns":%d`, s.Shared, s.Calls, s.Busy)
		}
		w.WriteString("}\n")
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats is what the per-layer metrics need from a trace.
type spanStats struct {
	n    int
	dur  map[spanKey][]float64 // durations, µs
	self map[spanKey][]float64 // self times, µs
	// Sums in seconds. total maps a span name to the summed duration of
	// its spans; selfSum to their summed self time; rootSum is the
	// summed duration of parentless spans by name.
	total, selfSum, rootSum map[spanName]float64
	// diskUnder is device time by the name of the root span above it.
	diskUnder map[spanName]float64
	nested    bool // every span lies inside its parent
}

type spanKey struct {
	name spanName
	kind opKind
}

// all gathers the values of every kind of one span name.
func all(m map[spanKey][]float64, name spanName) []float64 {
	var v []float64
	for k, x := range m {
		if k.name == name {
			v = append(v, x...)
		}
	}
	return v
}

// analyze computes self times: a span's duration minus the part of it
// its children cover. A disk.io span counts for its Busy time.
func analyze(spans []span) spanStats {
	st := spanStats{
		n: len(spans), nested: true,
		dur: map[spanKey][]float64{}, self: map[spanKey][]float64{},
		total: map[spanName]float64{}, selfSum: map[spanName]float64{}, rootSum: map[spanName]float64{},
		diskUnder: map[spanName]float64{},
	}
	byID := make(map[uint64]*span, len(spans))
	kids := make(map[uint64][]*span)
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range spans {
		s := &spans[i]
		d := float64(s.End - s.Start)
		if s.Name == spanDisk {
			d = float64(s.Busy)
		}
		covered := int64(0)
		if cs := kids[s.ID]; len(cs) > 0 {
			sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
			at := s.Start
			for _, c := range cs {
				lo, hi := max(c.Start, at), min(c.End, s.End)
				if hi > lo {
					if c.Name == spanDisk {
						covered += min(c.Busy, hi-lo)
					} else {
						covered += hi - lo
					}
					at = hi
				}
			}
		}
		self := d - float64(covered)
		k := spanKey{s.Name, s.Kind}
		st.dur[k] = append(st.dur[k], d/1e3)
		st.self[k] = append(st.self[k], self/1e3)
		st.total[s.Name] += d / 1e9
		st.selfSum[s.Name] += self / 1e9
		if s.Parent == 0 {
			st.rootSum[s.Name] += d / 1e9
		} else if p := byID[s.Parent]; p == nil || s.Start < p.Start || s.End > p.End {
			st.nested = false
		}
		if s.Name == spanDisk {
			if root := byID[s.Op]; root != nil {
				st.diskUnder[root.Name] += d / 1e9
			}
		}
	}
	return st
}
