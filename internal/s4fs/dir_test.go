package s4fs

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s4/internal/core"
	"s4/internal/fsys"
	"s4/internal/types"
)

// dirNames lists dir's names, sorted, failing the test on an error.
func dirNames(t *testing.T, fs *FS, dir fsys.Handle) []string {
	t.Helper()
	ents, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return names
}

// coldNames lists the directory called name under the root of a fresh
// mount of fs's drive, whose cache starts empty.
func coldNames(t *testing.T, fs *FS, name string) []string {
	t.Helper()
	cold, err := Mount(fs.Drive(), fs.opts)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := cold.Lookup(cold.Root(), name)
	if err != nil {
		t.Fatal(err)
	}
	return dirNames(t, cold, h)
}

// versions returns the directory object's retained versions, oldest
// first.
func versions(t *testing.T, fs *FS, dir fsys.Handle) []dirVersion {
	t.Helper()
	vs, err := fs.Drive().ListVersions(types.AdminCred(), types.ObjectID(dir))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]dirVersion, len(vs))
	for i, v := range vs {
		out[len(vs)-1-i] = dirVersion{Op: v.Op, Time: v.Time, Size: v.Size}
	}
	return out
}

// dirVersion is the part of a drive version these tests look at.
type dirVersion struct {
	Op   string
	Time types.Timestamp
	Size uint64
}

// TestConcurrentDirOpsOneDirectory runs creates, removes and renames
// from several goroutines in one directory. Every change must land on
// the drive in a slot of its own: a cold mount lists exactly what the
// warm cache lists, and both list what the changes leave.
func TestConcurrentDirOpsOneDirectory(t *testing.T) {
	fs, _ := newFS(t)
	d, _, err := fs.Mkdir(fs.Root(), "shared", 0755)
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 4, 25
	var wg sync.WaitGroup
	var wins atomic.Int32
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs <- func() error {
				for i := 0; i < each; i++ {
					name := fmt.Sprintf("w%d-%02d", w, i)
					if _, _, err := fs.Create(d, name, 0644); err != nil {
						return fmt.Errorf("create %s: %w", name, err)
					}
					switch {
					case i%3 == 0:
						if err := fs.Remove(d, name); err != nil {
							return fmt.Errorf("remove %s: %w", name, err)
						}
					case i%5 == 0:
						if err := fs.Rename(d, name, d, "r"+name); err != nil {
							return fmt.Errorf("rename %s: %w", name, err)
						}
					}
					// Every worker races for one name; one create wins.
					if _, _, err := fs.Create(d, "contested", 0644); err == nil {
						wins.Add(1)
					} else if !errors.Is(err, fsys.ErrExist) {
						return fmt.Errorf("create contested: %w", err)
					}
				}
				return nil
			}()
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := wins.Load(); n != 1 {
		t.Fatalf("the contested name was created %d times, want 1", n)
	}
	want := []string{"contested"}
	for w := 0; w < workers; w++ {
		for i := 0; i < each; i++ {
			name := fmt.Sprintf("w%d-%02d", w, i)
			switch {
			case i%3 == 0:
			case i%5 == 0:
				want = append(want, "r"+name)
			default:
				want = append(want, name)
			}
		}
	}
	sort.Strings(want)
	warm := dirNames(t, fs, d)
	if fmt.Sprint(warm) != fmt.Sprint(want) {
		t.Fatalf("warm cache lists %d names, want %d:\n%v\n%v", len(warm), len(want), warm, want)
	}
	if cold := coldNames(t, fs, "shared"); fmt.Sprint(cold) != fmt.Sprint(want) {
		t.Fatalf("cold mount lists %d names, want %d:\n%v", len(cold), len(want), cold)
	}
}

// TestDirChangeIsOneVersion checks that every namespace change is one
// drive call on the directory, and that the directory's history stays
// exact: no version lists a name twice.
func TestDirChangeIsOneVersion(t *testing.T) {
	fs, clk := newFS(t)
	d, _, err := fs.Mkdir(fs.Root(), "dir", 0755)
	if err != nil {
		t.Fatal(err)
	}
	// step runs one change and checks it added exactly one version,
	// of the given kind and leaving the directory the given size.
	step := func(what, op string, size uint64, change func() error) {
		t.Helper()
		clk.Advance(time.Millisecond)
		before := len(versions(t, fs, d))
		if err := change(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		vs := versions(t, fs, d)
		if len(vs) != before+1 {
			t.Fatalf("%s added %d directory versions, want 1", what, len(vs)-before)
		}
		if v := vs[len(vs)-1]; v.Op != op || v.Size != size {
			t.Fatalf("%s: version %+v, want op %s size %d", what, v, op, size)
		}
	}
	create := func(name string) func() error {
		return func() error { _, _, err := fs.Create(d, name, 0644); return err }
	}
	// Two blocks: 32 records fill the first, the 33rd opens the second.
	for i := 0; i < recsPerBlock+1; i++ {
		step("create", "write", uint64(i+1)*recSize, create(fmt.Sprintf("f%02d", i)))
	}
	full := uint64(recsPerBlock+1) * recSize
	step("remove in the first block", "write", full, func() error { return fs.Remove(d, "f05") })
	step("create into the freed slot", "write", full, create("g05"))
	step("rename in place", "write", full, func() error { return fs.Rename(d, "f07", d, "h07") })
	step("remove at the end of the first block", "write", full, func() error { return fs.Remove(d, "f31") })
	// The last block's one record goes: the directory shrinks by that
	// block, to a block boundary, with a truncate version and no
	// rewritten block.
	step("remove emptying the last block", "truncate", types.BlockSize,
		func() error { return fs.Remove(d, fmt.Sprintf("f%02d", recsPerBlock)) })
	step("create into the last free slot", "write", types.BlockSize, create("f31"))
	step("create appends again", "write", full, create("tail"))

	// The freed slot was reused: g05 sits where f05 was.
	raw, err := fs.Read(d, 0, int(full))
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := decodeRec(raw[5*recSize:]); !ok || r.name != "g05" {
		t.Fatalf("slot 5 holds %q, want g05", r.name)
	}
	// Every version, read by its time, lists each name at most once.
	for _, v := range versions(t, fs, d) {
		data, err := fs.Drive().Read(types.AdminCred(), types.ObjectID(d), 0, v.Size, v.Time)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, e := range ParseDirData(data) {
			if seen[e.Name] {
				t.Fatalf("version at %v (%s) lists %q twice", v.Time, v.Op, e.Name)
			}
			seen[e.Name] = true
		}
	}
	if warm, cold := dirNames(t, fs, d), coldNames(t, fs, "dir"); fmt.Sprint(warm) != fmt.Sprint(cold) {
		t.Fatalf("warm %v\ncold %v", warm, cold)
	}
	t.Run("DenseLayoutTakesChanges", testDenseLayoutTakesChanges)
}

// testDenseLayoutTakesChanges mounts a directory written in the older
// dense layout, whose removes moved the last record into the hole so
// that no slot holds a zero record, and checks it takes removes,
// creates and renames.
func testDenseLayoutTakesChanges(t *testing.T) {
	fs, _ := newFS(t)
	d, _, err := fs.Mkdir(fs.Root(), "old", 0755)
	if err != nil {
		t.Fatal(err)
	}
	const n = recsPerBlock + 8
	var dense bytes.Buffer
	for i := 0; i < n; i++ {
		id, err := fs.be.Create(fs.defaultACL(), encodeAttrBlob(fsys.TypeReg, 0644, 1000, 0, 1))
		if err != nil {
			t.Fatal(err)
		}
		dense.Write(encodeRec(dirRec{name: fmt.Sprintf("o%02d", i), obj: id, typ: fsys.TypeReg}))
	}
	if err := fs.be.Write(types.ObjectID(d), 0, dense.Bytes()); err != nil {
		t.Fatal(err)
	}
	m, err := Mount(fs.Drive(), fs.opts)
	if err != nil {
		t.Fatal(err)
	}
	md, _, err := m.Lookup(m.Root(), "old")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(dirNames(t, m, md)); got != n {
		t.Fatalf("dense directory lists %d names, want %d", got, n)
	}
	if err := m.Remove(md, "o03"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Create(md, "new", 0644); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename(md, "o10", md, "renamed"); err != nil {
		t.Fatal(err)
	}
	for i := recsPerBlock; i < n; i++ {
		if err := m.Remove(md, fmt.Sprintf("o%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	a, err := m.GetAttr(md)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size != types.BlockSize {
		t.Fatalf("directory is %d bytes after its second block emptied, want %d", a.Size, types.BlockSize)
	}
	warm := dirNames(t, m, md)
	if len(warm) != recsPerBlock || warm[len(warm)-1] != "renamed" {
		t.Fatalf("warm cache lists %v", warm)
	}
	if cold := coldNames(t, m, "old"); fmt.Sprint(cold) != fmt.Sprint(warm) {
		t.Fatalf("warm %v\ncold %v", warm, cold)
	}
}

// TestRenameOntoItself renames a name to itself, which leaves the file
// as it was.
func TestRenameOntoItself(t *testing.T) {
	fs, _ := newFS(t)
	h, _, err := fs.Create(fs.Root(), "same", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Write(h, 0, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(fs.Root(), "same", fs.Root(), "same"); err != nil {
		t.Fatal(err)
	}
	got, _, err := fs.Lookup(fs.Root(), "same")
	if err != nil || got != h {
		t.Fatalf("lookup after rename onto itself: %v %v", got, err)
	}
	if data, err := fs.Read(got, 0, 8); err != nil || string(data) != "kept" {
		t.Fatalf("data after rename onto itself: %q %v", data, err)
	}
}

// holdFirstGetAttr is a Backend that holds the first GetAttr of obj,
// once it has its answer, until release is closed.
type holdFirstGetAttr struct {
	Backend
	obj     types.ObjectID
	taken   atomic.Bool
	held    chan struct{} // closed when that GetAttr is held
	release chan struct{}
}

// holdGetAttr makes fs hold its first GetAttr of obj from now on.
func holdGetAttr(fs *FS, obj fsys.Handle) *holdFirstGetAttr {
	b := &holdFirstGetAttr{Backend: fs.be, obj: types.ObjectID(obj),
		held: make(chan struct{}), release: make(chan struct{})}
	fs.be = b
	return b
}

func (b *holdFirstGetAttr) GetAttr(obj types.ObjectID, at types.Timestamp) (core.AttrInfo, error) {
	ai, err := b.Backend.GetAttr(obj, at)
	if obj == b.obj && b.taken.CompareAndSwap(false, true) {
		close(b.held)
		<-b.release
	}
	return ai, err
}

// TestRmdirRacesRenameOntoName holds an Rmdir after it has found its
// directory empty and lets a rename put a non-empty directory under the
// same name. The Rmdir must not remove the directory that took the name.
func TestRmdirRacesRenameOntoName(t *testing.T) {
	fs, _ := newFS(t)
	sub, _, err := fs.Mkdir(fs.Root(), "sub", 0755)
	if err != nil {
		t.Fatal(err)
	}
	moved, _, err := fs.Mkdir(fs.Root(), "moved", 0755)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Create(moved, "child", 0644); err != nil {
		t.Fatal(err)
	}
	hold := holdGetAttr(fs, sub)
	rmdir := make(chan error, 1)
	go func() { rmdir <- fs.Rmdir(fs.Root(), "sub") }()
	<-hold.held // the Rmdir has found sub and is reading it
	if err := fs.Rename(fs.Root(), "moved", fs.Root(), "sub"); err != nil {
		t.Fatal(err)
	}
	close(hold.release)
	if err := <-rmdir; !errors.Is(err, fsys.ErrNotFound) {
		t.Fatalf("rmdir of a name renamed over: %v, want ErrNotFound", err)
	}
	h, _, err := fs.Lookup(fs.Root(), "sub")
	if err != nil || h != moved {
		t.Fatalf("sub is %v (%v), want the moved directory %v", h, err, moved)
	}
	if got := dirNames(t, fs, h); fmt.Sprint(got) != "[child]" {
		t.Fatalf("moved directory lists %v, want [child]", got)
	}
	if got := coldNames(t, fs, "sub"); fmt.Sprint(got) != "[child]" {
		t.Fatalf("cold mount lists %v under sub, want [child]", got)
	}
}

// TestRenameRacesRenameOntoSource holds a rename of a onto b after it
// has removed b, and lets a second rename put another file under a.
// The first rename must fail and leave the file that took a under a.
func TestRenameRacesRenameOntoSource(t *testing.T) {
	fs, _ := newFS(t)
	var h [3]fsys.Handle
	for i, name := range []string{"a", "b", "c"} {
		var err error
		if h[i], _, err = fs.Create(fs.Root(), name, 0644); err != nil {
			t.Fatal(err)
		}
	}
	hold := holdGetAttr(fs, h[1])
	rename := make(chan error, 1)
	go func() { rename <- fs.Rename(fs.Root(), "a", fs.Root(), "b") }()
	<-hold.held // the rename has dropped b and is reading its attributes
	if err := fs.Rename(fs.Root(), "c", fs.Root(), "a"); err != nil {
		t.Fatal(err)
	}
	close(hold.release)
	if err := <-rename; !errors.Is(err, fsys.ErrNotFound) {
		t.Fatalf("rename from a name renamed over: %v, want ErrNotFound", err)
	}
	if got, _, err := fs.Lookup(fs.Root(), "a"); err != nil || got != h[2] {
		t.Fatalf("a is %v (%v), want c's file %v", got, err, h[2])
	}
	if got := fmt.Sprint(dirNames(t, fs, fs.Root())); got != "[a]" {
		t.Fatalf("root lists %s, want [a]", got)
	}
}
