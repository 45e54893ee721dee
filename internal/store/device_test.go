package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
)

// listSeqs lists the sequence numbers of the files in dir with the given
// prefix and suffix.
func listSeqs(dir, prefix, suffix string) ([]uint64, error) {
	files, err := dirDevice(dir).list()
	return seqsOf(files, prefix, suffix), err
}

// crashDevice is an in-memory directory with a power switch: a file keeps
// the bytes it had at its last Sync, and crash drops the rest, along with
// every create, rename and remove that no syncDir followed. The store
// only appends to the files it creates, so a file's synced state is a
// prefix of its bytes.
type crashDevice struct {
	mu     sync.Mutex
	files  map[string]*crashFile // the directory as the store sees it
	stable map[string]*crashFile // the directory as of the last syncDir
}

type crashFile struct {
	data   []byte
	synced int // len(data) at the last Sync
}

func newCrashDevice() *crashDevice {
	return &crashDevice{files: map[string]*crashFile{}, stable: map[string]*crashFile{}}
}

// crash loses power: every file is cut back to what it synced, under the
// names the last syncDir made durable. Handles open before the crash
// reach none of the files after it.
func (d *crashDevice) crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.files = map[string]*crashFile{}
	for name, f := range d.stable {
		d.files[name] = &crashFile{data: append([]byte(nil), f.data[:f.synced]...), synced: f.synced}
	}
	d.stable = maps.Clone(d.files)
}

func (d *crashDevice) create(name string) (file, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.files[name] != nil {
		return nil, &fs.PathError{Op: "create", Path: name, Err: fs.ErrExist}
	}
	f := &crashFile{}
	d.files[name] = f
	return &crashHandle{d: d, f: f}, nil
}

func (d *crashDevice) open(name string) (file, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.files[name] == nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return &crashHandle{d: d, f: d.files[name]}, nil
}

func (d *crashDevice) list() (map[string]int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	files := map[string]int64{}
	for name, f := range d.files {
		files[name] = int64(len(f.data))
	}
	return files, nil
}

func (d *crashDevice) rename(from, to string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.files[from] == nil {
		return &fs.PathError{Op: "rename", Path: from, Err: fs.ErrNotExist}
	}
	d.files[to] = d.files[from]
	delete(d.files, from)
	return nil
}

func (d *crashDevice) remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.files[name] == nil {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(d.files, name)
	return nil
}

func (d *crashDevice) truncate(name string, size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.files[name]
	if f == nil {
		return &fs.PathError{Op: "truncate", Path: name, Err: fs.ErrNotExist}
	}
	if size < int64(len(f.data)) {
		f.data = f.data[:size]
		f.synced = min(f.synced, int(size))
	}
	return nil
}

func (d *crashDevice) syncDir() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stable = maps.Clone(d.files)
	return nil
}

func (d *crashDevice) durable() bool { return true }

type crashHandle struct {
	d      *crashDevice
	f      *crashFile
	closed bool
}

func (h *crashHandle) Write(p []byte) (int, error) {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

func (h *crashHandle) ReadAt(p []byte, off int64) (int, error) {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	if off >= int64(len(h.f.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *crashHandle) Sync() error {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	h.f.synced = len(h.f.data)
	return nil
}

func (h *crashHandle) Close() error {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	h.closed = true
	return nil
}

// errShortWrite, returned by an inject, makes a write land the first half
// of its bytes before it fails.
var errShortWrite = errors.New("injected short write")

// faultDevice wraps a device: before each create, rename, remove,
// truncate and syncDir, and each Write, Sync and Close of a file it
// created, it asks inject, and a non-nil answer fails that call. Opens,
// lists and reads pass through.
type faultDevice struct {
	device
	inject func(op, name string) error
}

type faultFile struct {
	file
	d    *faultDevice
	name string
}

func (d *faultDevice) create(name string) (file, error) {
	if err := d.inject("create", name); err != nil {
		return nil, err
	}
	f, err := d.device.create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f, d, name}, nil
}

func (d *faultDevice) rename(from, to string) error {
	if err := d.inject("rename", from); err != nil {
		return err
	}
	return d.device.rename(from, to)
}

func (d *faultDevice) remove(name string) error {
	if err := d.inject("remove", name); err != nil {
		return err
	}
	return d.device.remove(name)
}

func (d *faultDevice) truncate(name string, size int64) error {
	if err := d.inject("truncate", name); err != nil {
		return err
	}
	return d.device.truncate(name, size)
}

func (d *faultDevice) syncDir() error {
	if err := d.inject("syncDir", ""); err != nil {
		return err
	}
	return d.device.syncDir()
}

func (f *faultFile) Write(p []byte) (int, error) {
	switch err := f.d.inject("write", f.name); {
	case err == errShortWrite:
		n, _ := f.file.Write(p[:len(p)/2])
		return n, err
	case err != nil:
		return 0, err
	}
	return f.file.Write(p)
}

func (f *faultFile) Sync() error {
	if err := f.d.inject("sync", f.name); err != nil {
		return err
	}
	return f.file.Sync()
}

// Close closes the file even when it fails, as close(2) does.
func (f *faultFile) Close() error {
	err := f.file.Close()
	if ierr := f.d.inject("close", f.name); ierr != nil {
		return ierr
	}
	return err
}

// faultOnce fails the first call to op on a file whose name has prefix
// with err, once armed is set.
func faultOnce(armed *bool, op, prefix string, err error) func(string, string) error {
	return func(o, name string) error {
		if *armed && o == op && strings.HasPrefix(name, prefix) {
			*armed = false
			return err
		}
		return nil
	}
}

func mustOpenOn(t *testing.T, dev device, opt Options) *Store {
	t.Helper()
	s, err := open(dev, opt)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s
}

// assertPagesIn pages every app of s in and requires no page error.
func assertPagesIn(t *testing.T, s *Store) {
	t.Helper()
	if err := pagesIn(s); err != nil {
		t.Fatal(err)
	}
}

func pagesIn(s *Store) error {
	for _, app := range s.AppNames() {
		s.RestoreWindow(app)
	}
	if st := s.Stats(); st.PageErrors != 0 || st.PagedApps != 0 {
		return fmt.Errorf("after paging every app in: %d page errors, %d apps still cold", st.PageErrors, st.PagedApps)
	}
	return nil
}

// TestShortPageWriteSealsPageFile cuts one page write short. Its page-out
// fails and the app stays warm; the file it tore is sealed with the torn
// bytes counted dead, so the next page-out lands in a fresh file where
// its stub says it is, and every app pages back in intact, before a
// crash and after one.
func TestShortPageWriteSealsPageFile(t *testing.T) {
	cd := newCrashDevice()
	armed := false
	s := mustOpenOn(t, &faultDevice{cd, faultOnce(&armed, "write", pagePrefix, errShortWrite)},
		Options{Sync: SyncAlways, CompactEvery: -1})
	obs := pageFleet(4, 20, 21)
	if err := s.AppendBatch(obs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		armed = i == 1
		if err := s.PageOut(appName(i)); (err != nil) != (i == 1) {
			t.Fatalf("PageOut(%s) = %v", appName(i), err)
		}
	}
	if st := s.Stats(); st.PagedApps != 3 || st.PageFiles != 2 {
		t.Fatalf("after a torn page write: %d cold apps in %d page files, want 3 in 2", st.PagedApps, st.PageFiles)
	}
	if dead := s.pg.deadBytes; dead <= 0 {
		t.Fatalf("the torn bytes are not counted dead (dead bytes %d)", dead)
	}
	assertExactPrefix(t, s, obs) // cold apps read from their pages
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	cd.crash()
	r := mustOpenOn(t, cd, Options{Sync: SyncAlways, CompactEvery: -1})
	if r.PagedApps() != 3 {
		t.Fatalf("reopened with %d cold apps, want 3", r.PagedApps())
	}
	assertExactPrefix(t, r, obs)
	assertPagesIn(t, r)
}

// TestPageGCSyncsBeforeSealing fails the page GC's rewrite after it has
// sealed the current page file. The compaction still writes a snapshot
// naming stubs in that file, so the seal must have synced it: after a
// crash every cold app pages back in, with no page error.
func TestPageGCSyncsBeforeSealing(t *testing.T) {
	cd := newCrashDevice()
	armed := false
	opt := Options{Sync: SyncAlways, CompactEvery: -1}
	s := mustOpenOn(t, &faultDevice{cd, faultOnce(&armed, "create", pagePrefix, syscall.ENOSPC)}, opt)
	obs := pageFleet(6, 20, 22)
	if err := s.AppendBatch(obs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s.PageOut(appName(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.pg.deadBytes += pageGCMinDead // the GC is due
	armed = true                    // and cannot create its new page file
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PageGCFails != 1 || st.PagedApps != 6 {
		t.Fatalf("after the failed rewrite: %d GC failures, %d cold apps, want 1 and 6", st.PageGCFails, st.PagedApps)
	}
	cd.crash()
	r := mustOpenOn(t, cd, opt)
	if r.PagedApps() != 6 {
		t.Fatalf("reopened with %d cold apps, want 6", r.PagedApps())
	}
	assertExactPrefix(t, r, obs)
	assertPagesIn(t, r)
}

// pageFault fails the next call to op on a page file with err, or lets
// it through if err is nil; with corrupt, it first flips a byte of that
// file's first record.
type pageFault struct {
	op      string
	err     error
	corrupt bool
}

// TestPageSyncFailureRecovers fails a page file's fsync: inside a
// compaction, or when a failed page write seals the file, its torn tail
// left behind or not — and once after that a second failed write seals
// the next file, which sync skips while the first failure is kept. The
// next compaction recovers: it rewrites the live records of every file
// from the failed one on into a fresh page file, read back and
// verified, syncs it, writes its snapshot and deletes the WAL segments
// that snapshot supersedes. When the failed file is corrupt, so that a
// record cannot be read back — by that compaction, or by a page-in that
// loses the window — the error is kept and no snapshot is written. In
// every case, a crash right after that compaction, and one after more
// appends, page-outs and a compaction, leave the store holding exactly
// the acked observations, and every cold app pages in Float64bits-equal.
func TestPageSyncFailureRecovers(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults []pageFault
	}{
		{"sync_in_compaction", []pageFault{{"sync", syscall.EIO, false}}},
		{"corrupt_file", []pageFault{{"sync", syscall.EIO, true}}},
		{"failed_write_then_sealing_sync", []pageFault{{"write", syscall.ENOSPC, false}, {"sync", syscall.ENOSPC, false}}},
		{"short_write_then_sealing_sync", []pageFault{{"write", errShortWrite, false}, {"sync", syscall.ENOSPC, false}}},
		{"next_file_sealed_unsynced", []pageFault{{"write", syscall.ENOSPC, false}, {"sync", syscall.EIO, false},
			{"write", nil, false}, {"write", syscall.ENOSPC, false}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cd := newCrashDevice()
			var faults []pageFault
			inject := func(op, name string) error {
				if len(faults) == 0 || op != faults[0].op || !strings.HasPrefix(name, pagePrefix) {
					return nil
				}
				f := faults[0]
				faults = faults[1:]
				if f.corrupt {
					cd.files[name].data[recordHeaderLen] ^= 0xff
				}
				return f.err
			}
			corrupt := tc.faults[0].corrupt
			opt := Options{Sync: SyncAlways, CompactEvery: -1}
			s := mustOpenOn(t, &faultDevice{cd, inject}, opt)
			acked := pageFleet(6, 20, 24)
			if err := s.AppendBatch(acked); err != nil {
				t.Fatal(err)
			}
			pageOut := func(from, to int) {
				t.Helper()
				for i := from; i < to; i++ {
					// A failed page-out leaves the app warm: once more.
					if s.PageOut(appName(i)) != nil {
						if err := s.PageOut(appName(i)); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			segments := func() map[string]bool {
				files, _ := cd.list()
				segs := map[string]bool{}
				for name := range files {
					if _, ok := parseSeq(name, segPrefix, segSuffix); ok {
						segs[name] = true
					}
				}
				return segs
			}
			pageOut(0, 3)
			faults = tc.faults
			pageOut(3, 6)
			before := segments()
			err := s.Compact()
			if len(faults) > 0 {
				t.Fatalf("faults %v never struck", faults)
			}
			if corrupt {
				if err == nil || s.Compact() == nil {
					t.Fatalf("with a record of the failed file unreadable, compactions answered %v and then nil", err)
				}
			} else {
				if err != nil {
					t.Fatalf("the compaction after a failed page fsync: %v", err)
				}
				for name := range segments() {
					if before[name] {
						t.Fatalf("WAL segment %s, which the snapshot supersedes, is left", name)
					}
				}
				if len(s.warm) != 0 {
					t.Fatalf("%d warm apps after the recovery, want all cold", len(s.warm))
				}
				s.cold.each(func(app string, e *coldEntry) error {
					if e.ref().seq != s.pg.seq {
						t.Fatalf("%s: stub %+v after the recovery, want one in the fresh page file %d", app, e.ref(), s.pg.seq)
					}
					return nil
				})
			}
			// A crash now keeps what that compaction made durable.
			now := &crashDevice{files: maps.Clone(cd.files), stable: maps.Clone(cd.stable)}
			now.crash()
			r := mustOpenOn(t, now, opt)
			assertExactPrefix(t, r, acked)
			assertPagesIn(t, r)
			r.Close()

			more := pageFleet(6, 4, 25)
			if err := s.AppendBatch(more); err != nil {
				t.Fatal(err)
			}
			acked = append(acked, more...)
			pageOut(0, 3)
			if err := s.Compact(); (err != nil) != corrupt {
				t.Fatalf("the next compaction: %v", err)
			}
			cd.crash()
			r = mustOpenOn(t, cd, opt)
			assertExactPrefix(t, r, acked)
			if !corrupt && r.PagedApps() != 3 {
				t.Fatalf("reopened with %d cold apps, want 3", r.PagedApps())
			}
			assertPagesIn(t, r)
		})
	}
}

// TestOpenRemovesSnapshotTemps: a crash between a snapshot temp file's
// create and its rename leaves the temp file behind. Open removes it,
// under the name this build writes (snap-<seq>.snap.tmp) and the random
// one older builds wrote (snap-<n>.tmp), and leaves every other file
// alone; a compaction leaves no temp file of its own.
func TestOpenRemovesSnapshotTemps(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Sync: SyncNever, CompactEvery: -1}
	s := mustOpen(t, dir, opt)
	obs := pageFleet(3, 10, 23)
	if err := s.AppendBatch(obs); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	for _, name := range []string{"snap-123.tmp", snapName(9) + snapTempSuffix, "notes.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re := mustOpen(t, dir, opt)
	defer re.Close()
	assertExactPrefix(t, re, obs)
	if err := re.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, name := range listDir(t, dir) {
		if strings.HasSuffix(name, ".tmp") && name != "notes.tmp" {
			t.Errorf("%s survived a reopen and a compaction", name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.tmp")); err != nil {
		t.Errorf("a file that is not a snapshot temp was touched: %v", err)
	}
}

// syscallScript drives a store on dev through observes, a batch,
// page-outs, page-ins, a compaction that rewrites the page files, and a
// reopen, going on past any error, and returns the observations acked
// (under SyncAlways, each was fsynced before its call returned). The
// store is left open, as a crash would find it.
func syscallScript(dev device) (acked []Observation) {
	opt := Options{Sync: SyncAlways, CompactEvery: -1}
	s, err := open(dev, opt)
	if err != nil {
		return nil
	}
	ack := func(obs ...Observation) {
		if s.AppendBatch(obs) == nil {
			acked = append(acked, obs...)
		}
	}
	for i := 0; i < 8; i++ {
		ack(Observation{App: appName(i % 4), Concurrency: float64(i)*1.25 + 0.5})
	}
	batch := make([]Observation, 12)
	for i := range batch {
		batch[i] = Observation{App: appName(i % 6), Concurrency: float64(i*i) / 3}
	}
	ack(batch...)
	for i := 0; i < 6; i++ {
		s.PageOut(appName(i))
	}
	for i := 0; i < 3; i++ {
		s.RestoreWindow(appName(i))
	}
	ack(Observation{App: appName(4), Concurrency: 7.5}) // pages app 4 in
	for i := 0; i < 2; i++ {
		s.PageOut(appName(i))
	}
	s.pg.deadBytes += pageGCMinDead // the compaction's page GC is due
	s.Compact()
	ack(Observation{App: appName(5), Concurrency: 9.75})
	s.Close()
	if s, err = open(dev, opt); err == nil {
		ack(Observation{App: appName(6), Concurrency: 2.5})
	}
	return acked
}

// TestErrorAtEverySyscall runs syscallScript on a crash device once per
// device call the script makes, with that call failing: with ENOSPC, with
// EIO, and, for each write, cut short. Then the power goes. Reopened,
// the store must hold exactly the acked observations, every window
// Float64bits-equal to its acked prefix and every cold app paging back in
// without an error.
func TestErrorAtEverySyscall(t *testing.T) {
	var calls []string
	syscallScript(&faultDevice{newCrashDevice(), func(op, name string) error {
		calls = append(calls, op+" "+name)
		return nil
	}})
	if len(calls) < 40 {
		t.Fatalf("the script made only %d device calls", len(calls))
	}
	runs := 0
	for _, fault := range []error{syscall.ENOSPC, syscall.EIO, errShortWrite} {
		for k, call := range calls {
			if fault == errShortWrite && !strings.HasPrefix(call, "write ") {
				continue
			}
			what := fmt.Sprintf("%v at call %d (%s)", fault, k, call)
			cd, n := newCrashDevice(), 0
			acked := syscallScript(&faultDevice{cd, func(op, name string) error {
				n++
				if n-1 == k {
					return fault
				}
				return nil
			}})
			cd.crash()
			r, err := open(cd, Options{Sync: SyncAlways, CompactEvery: -1})
			if err == nil {
				err = exactPrefix(r, acked)
			}
			if err == nil {
				err = pagesIn(r)
			}
			if err != nil {
				t.Fatalf("%s, then a crash: %v", what, err)
			}
			runs++
		}
	}
	t.Logf("%d device calls, %d faulted runs", len(calls), runs)
}
