package main

import (
	"math/rand"
	"time"
)

// Op programs. -seed is the only input to these generators, and the
// stacks under test receive nothing but the ops they emit: the same
// seed yields the same program on every run and every commit.

type opKind uint8

// The first nKinds kinds are the ops clients issue; the rest only label
// spans of calls the layers below make.
const (
	kRead opKind = iota
	kWrite
	kSync
	kHistRead
	kCreate
	kRemove
	kOpen
	nKinds

	kNone
	kLookup
	kGetAttr
	kMkdir
	kDelete
	kTruncate
	kSetAttr
	kPCreate
	kPMount
)

var kindNames = [...]string{kRead: "read", kWrite: "write", kSync: "sync", kHistRead: "histread",
	kCreate: "create", kRemove: "remove", kOpen: "open", kNone: "", kLookup: "lookup", kGetAttr: "getattr",
	kMkdir: "mkdir", kDelete: "delete", kTruncate: "truncate", kSetAttr: "setattr", kPCreate: "pcreate", kPMount: "pmount"}

// op is one client request. Which fields matter depends on the workload.
type op struct {
	Kind     opKind
	Obj      int     // object index (rpc), file id (nfs), object (restart)
	Blk      int     // block within the object (rpc_hot_mix), directory (nfs)
	Off, Len int     // byte range (nfs, restart)
	U        float64 // where in the eligible version range a histread aims
}

// rpcSpec describes one s4rpc workload.
type rpcSpec struct {
	objects    int // per client
	blocks     int // per object
	spanWrite  bool
	window     time.Duration // detection window, virtual time
	cleanEvery int64         // ops between harness-driven CleanOnce calls
	readFrac   float64
	syncEvery  int // every n-th write is followed by a Sync
	delta      bool
}

// Run lengths were scaled to the benchmark contract's time cap (the
// issue's 30-40 s phases became run_seconds); windows scale with them so
// each run still spans several detection windows.
var (
	hotMixSpec = rpcSpec{
		objects: 64, blocks: 16,
		window: 5 * time.Second, cleanEvery: 1000, readFrac: 0.7, syncEvery: 16,
	}
	churnSpec = rpcSpec{
		objects: 8, blocks: 8, spanWrite: true,
		window: 5 * time.Second, cleanEvery: 500, readFrac: 0.3, syncEvery: 16, delta: true,
	}
)

func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(int64(key(seed, uint64(client)) >> 1)))
}

// rpcGen emits the closed-loop op stream of one s4rpc client.
type rpcGen struct {
	spec        rpcSpec
	rng         *rand.Rand
	writes      int
	pendingSync bool
}

func newRPCGen(seed int64, client int, spec rpcSpec) *rpcGen {
	return &rpcGen{spec: spec, rng: clientRand(seed, client)}
}

func (g *rpcGen) next() op {
	if g.pendingSync {
		g.pendingSync = false
		return op{Kind: kSync}
	}
	o := op{Obj: g.rng.Intn(g.spec.objects)}
	if !g.spec.spanWrite {
		o.Blk = g.rng.Intn(g.spec.blocks)
	}
	if g.rng.Float64() < g.spec.readFrac {
		o.Kind = kRead
		if g.spec.spanWrite {
			o.Kind, o.U = kHistRead, g.rng.Float64()
		}
		return o
	}
	o.Kind = kWrite
	g.writes++
	g.pendingSync = g.writes%g.spec.syncEvery == 0
	return o
}

// nfsSpec describes the PostMark-shaped workload (OSDI '00 §5.1.1).
type nfsSpec struct {
	dirs, files      int // per client
	minFile, maxFile int // created file size
	maxAppend        int
	window           time.Duration
	cleanEvery       int64
}

var postmarkSpec = nfsSpec{
	dirs: 10, files: 250, minFile: 512, maxFile: 9 << 10, maxAppend: 4096,
	window: 5 * time.Second, cleanEvery: 500,
}

// nfsMaxData is the NFSv2 per-call payload limit; larger transfers are
// split so that one op is one NFS call.
const nfsMaxData = 8192

type pmFile struct{ id, dir, size int }

// pmGen emits PostMark transactions as NFS calls. It carries its own
// model of the file set, so the whole program — which file each call
// names, at what offset, and the balance of creates and deletes — is
// fixed by the seed and never by what the server answered.
type pmGen struct {
	spec   nfsSpec
	rng    *rand.Rand
	files  []pmFile
	nextID int
	gone   []pmFile // deleted files, for the post-run absence check
	queue  []op
}

func newPostmarkGen(seed int64, client int, spec nfsSpec) *pmGen {
	g := &pmGen{spec: spec, rng: clientRand(seed, client)}
	for i := 0; i < spec.files; i++ {
		g.files = append(g.files, g.newFile())
	}
	return g
}

func (g *pmGen) newFile() pmFile {
	f := pmFile{id: g.nextID, dir: g.rng.Intn(g.spec.dirs),
		size: g.spec.minFile + g.rng.Intn(g.spec.maxFile-g.spec.minFile+1)}
	g.nextID++
	return f
}

// createCalls is the CREATE plus the WRITE calls that fill a new file.
func createCalls(f pmFile) []op {
	calls := []op{{Kind: kCreate, Obj: f.id, Blk: f.dir}}
	for off := 0; off < f.size; off += nfsMaxData {
		calls = append(calls, op{Kind: kWrite, Obj: f.id, Blk: f.dir, Off: off, Len: min(nfsMaxData, f.size-off)})
	}
	return calls
}

func (g *pmGen) next() op {
	for len(g.queue) == 0 {
		g.transaction()
	}
	o := g.queue[0]
	g.queue = g.queue[1:]
	return o
}

// transaction queues one PostMark transaction: read a whole file,
// append to one, create one, or delete one, with equal bias. The file
// count reflects off 0.8x and 1.2x of its initial value so a long run
// neither empties nor grows the set.
func (g *pmGen) transaction() {
	t := g.rng.Intn(4)
	if t == 2 && len(g.files) >= g.spec.files*12/10 {
		t = 3
	} else if t == 3 && len(g.files) <= g.spec.files*8/10 {
		t = 2
	}
	if t == 2 {
		f := g.newFile()
		g.files = append(g.files, f)
		g.queue = createCalls(f)
		return
	}
	i := g.rng.Intn(len(g.files))
	f := &g.files[i]
	switch t {
	case 0:
		for off := 0; off < f.size; off += nfsMaxData {
			g.queue = append(g.queue, op{Kind: kRead, Obj: f.id, Blk: f.dir, Off: off, Len: min(nfsMaxData, f.size-off)})
		}
	case 1:
		n := 1 + g.rng.Intn(g.spec.maxAppend)
		g.queue = append(g.queue, op{Kind: kWrite, Obj: f.id, Blk: f.dir, Off: f.size, Len: n})
		f.size += n
	case 3:
		g.queue = append(g.queue, op{Kind: kRemove, Obj: f.id, Blk: f.dir})
		g.gone = append(g.gone, *f)
		g.files[i] = g.files[len(g.files)-1]
		g.files = g.files[:len(g.files)-1]
	}
}

// restartSpec describes the crash image restart_deep recovers.
type restartSpec struct {
	capacity   int64
	objects    int
	objBytes   int
	versions   int // small-patch versions before the tail
	checkpoint int // Checkpoint() every this many versions
	tail       int // Sync-acked writes after the last checkpoint
	patch      int
	histProbes int
}

var restartDeepSpec = restartSpec{
	capacity: 512 << 20, objects: 64, objBytes: 2 * blockSize,
	versions: 20000, checkpoint: 2048, tail: 256, patch: 512, histProbes: 64,
}

// rsGen emits the patch writes that build the restart image.
type rsGen struct {
	spec restartSpec
	rng  *rand.Rand
	n    int
}

func newRestartGen(seed int64, spec restartSpec) *rsGen {
	return &rsGen{spec: spec, rng: clientRand(seed, 0)}
}

func (g *rsGen) next() op {
	o := op{Kind: kWrite, Obj: g.n % g.spec.objects,
		Off: g.rng.Intn(g.spec.objBytes - g.spec.patch), Len: g.spec.patch}
	g.n++
	return o
}
