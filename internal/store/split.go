package store

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
)

// Split resizes a fleet offline: it redistributes the apps of the stopped
// stores in srcs over len(dsts) shards, giving every app, warm or cold, to
// dsts[ShardOf(app, len(dsts))], and returns what each destination got.
// Each destination receives one v5 snapshot of its apps' compact windows
// and totals, written temp -> fsync -> rename, and its directory is
// fsynced; it gets no WAL records, no memo and no model file (a new
// shard's first boot seeds its model). Destinations must be empty or
// missing, none may be a source, and an app held by two sources is
// refused. The sources are only read, through a device that drops every
// write, so a failed split leaves every destination empty and can be run
// again.
//
// Every source is opened in turn, as Open would at boot, so a split costs
// about one boot replay of the fleet.
func Split(srcs, dsts []string) ([]SplitCount, error) {
	if len(srcs) == 0 || len(dsts) == 0 {
		return nil, errors.New("store: split needs at least one source and one destination")
	}
	if err := checkSplitDirs(srcs, dsts); err != nil {
		return nil, err
	}
	devs := make([]device, len(dsts))
	for i, dir := range dsts {
		dev, err := openDir(dir)
		if err != nil {
			return nil, err
		}
		devs[i] = dev
	}
	return split(srcs, devs)
}

// SplitCount is what Split wrote to one destination: its apps and their
// lifetime observations.
type SplitCount struct {
	Apps         int
	Observations int64
}

// splitSnapSeq numbers the snapshot a destination starts from. A snapshot
// at 1 covers WAL segment 1, so the first segment the new shard writes is
// 2.
const splitSnapSeq = 1

func split(srcs []string, dsts []device) ([]SplitCount, error) {
	owner := map[string]int{} // app -> the source it came from
	counts := make([]SplitCount, len(dsts))
	err := writeFiles(dsts, snapName(splitSnapSeq), snapMagicV5, snapBufSize, func(add func(int, string, snapRecord) error) error {
		for si, src := range srcs {
			s, err := open(readOnly{dir: dirDevice(src)}, Options{Sync: SyncNever, CompactEvery: -1})
			if err != nil {
				return fmt.Errorf("store: split: open %s: %w", src, err)
			}
			for _, app := range s.AppNames() {
				if prev, dup := owner[app]; dup {
					err = fmt.Errorf("store: split: app %q is in both %s and %s", app, srcs[prev], src)
					break
				}
				owner[app] = si
				var st *appState
				if st, err = s.warmState(app); err != nil {
					err = fmt.Errorf("store: split: page in %q from %s: %w", app, src, err)
					break
				}
				i := ShardOf(app, len(dsts))
				if err = add(i, app, st); err != nil {
					break
				}
				counts[i].Apps++
				counts[i].Observations += st.total
			}
			if cerr := s.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return counts, nil
}

// checkSplitDirs refuses a source that is not a directory (Open would
// create it, and split an empty store), and a destination that holds
// anything, is named twice, or is also a source.
func checkSplitDirs(srcs, dsts []string) error {
	seen := map[string]string{}
	for _, src := range srcs {
		if _, err := dirDevice(src).list(); err != nil {
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
		files, err := dirDevice(dst).list()
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		if len(files) > 0 {
			return fmt.Errorf("store: split: destination %s is not empty", dst)
		}
	}
	return nil
}
