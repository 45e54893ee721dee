package store

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Split resizes a fleet offline: it redistributes the apps of the stopped
// stores in srcs over len(dsts) shards, giving every app, warm or cold, to
// dsts[ShardOf(app, len(dsts))]. Each destination receives one v3
// snapshot of its apps' compact windows and totals, written temp ->
// fsync -> rename, and its directory is fsynced; it gets no WAL records,
// no memo and no replication cursor, so a follower of a new shard
// bootstraps through ExportState. Destinations must be empty or missing,
// none may be a source, and an app held by two sources is refused. The
// sources are only read (and reopen to the same state), so a failed
// split leaves every destination empty and can be run again.
//
// Every source is opened in turn, as Open would at boot, so a split costs
// about one boot replay of the fleet.
func Split(srcs, dsts []string) error {
	return split(srcs, dsts, createSnapshotTemp)
}

// splitFile is what Split writes a destination snapshot through (an
// *os.File).
type splitFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Name() string
}

func createSnapshotTemp(dir string) (splitFile, error) {
	return os.CreateTemp(dir, "snap-*.tmp")
}

// splitSnapSeq numbers the snapshot a destination starts from. A snapshot
// at 1 covers WAL segment 1, so the first segment the new shard writes is
// 2, and a follower that asks for segment 1 is sent to bootstrap.
const splitSnapSeq = 1

// splitDst is one destination's snapshot while it is being written.
type splitDst struct {
	dir string
	f   splitFile
	w   *bufio.Writer
}

func split(srcs, dsts []string, create func(dir string) (splitFile, error)) (err error) {
	if len(srcs) == 0 || len(dsts) == 0 {
		return errors.New("store: split needs at least one source and one destination")
	}
	if err := checkSplitDirs(srcs, dsts); err != nil {
		return err
	}
	out := make([]*splitDst, len(dsts))
	defer func() {
		// On failure nothing may be left behind: a destination that kept a
		// snapshot would refuse the retry.
		for _, d := range out {
			if d == nil {
				continue
			}
			if d.f != nil {
				d.f.Close()
				os.Remove(d.f.Name())
			}
			if err != nil {
				os.Remove(filepath.Join(d.dir, snapName(splitSnapSeq)))
			}
		}
	}()
	for i, dir := range dsts {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		f, err := create(dir)
		if err != nil {
			return err
		}
		out[i] = &splitDst{dir: dir, f: f, w: bufio.NewWriterSize(f, 1<<20)}
		if _, err := out[i].w.Write(appendRecord(nil, []byte(snapMagicV3))); err != nil {
			return err
		}
	}

	owner := map[string]int{} // app -> the source it came from
	var buf []byte
	for si, src := range srcs {
		s, err := Open(src, Options{Sync: SyncNever, CompactEvery: -1})
		if err != nil {
			return fmt.Errorf("store: split: open %s: %w", src, err)
		}
		for app, st := range s.apps {
			if prev, dup := owner[app]; dup {
				s.Close()
				return fmt.Errorf("store: split: app %q is in both %s and %s", app, srcs[prev], src)
			}
			owner[app] = si
			if st.page != nil {
				full, _, err := s.pg.load(app, st.page, cwWindow)
				if err != nil {
					s.Close()
					return fmt.Errorf("store: split: page in %q from %s: %w", app, src, err)
				}
				st = &full
			}
			buf = sealRecord(encodeSnapshotApp(reserveHeader(buf[:0]), app, st), 0)
			if _, err := out[ShardOf(app, len(dsts))].w.Write(buf); err != nil {
				s.Close()
				return err
			}
		}
		if err := s.Close(); err != nil {
			return err
		}
	}

	for _, d := range out {
		if err := d.w.Flush(); err != nil {
			return err
		}
		if err := d.f.Sync(); err != nil {
			return err
		}
	}
	for _, d := range out {
		f := d.f
		d.f = nil
		if err := f.Close(); err != nil {
			os.Remove(f.Name())
			return err
		}
		if err := os.Rename(f.Name(), filepath.Join(d.dir, snapName(splitSnapSeq))); err != nil {
			os.Remove(f.Name())
			return err
		}
		fsyncDir(d.dir)
	}
	return nil
}

// checkSplitDirs refuses a source that is not a directory (Open would
// create it, and split an empty store), and a destination that holds
// anything, is named twice, or is also a source.
func checkSplitDirs(srcs, dsts []string) error {
	seen := map[string]string{}
	for _, src := range srcs {
		if fi, err := os.Stat(src); err != nil || !fi.IsDir() {
			return fmt.Errorf("store: split: source %s is not a data directory", src)
		}
		abs, err := filepath.Abs(src)
		if err != nil {
			return err
		}
		seen[abs] = "source"
	}
	for _, dst := range dsts {
		abs, err := filepath.Abs(dst)
		if err != nil {
			return err
		}
		if role, ok := seen[abs]; ok {
			return fmt.Errorf("store: split: %s is already a %s", dst, role)
		}
		seen[abs] = "destination"
		entries, err := os.ReadDir(dst)
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		if len(entries) > 0 {
			return fmt.Errorf("store: split: destination %s is not empty", dst)
		}
	}
	return nil
}
