package store

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// A device is the store's file layer: the WAL, replay, the pager, snapshot
// write and load, the model file, Split and Stats reach every file they
// touch (all named in one flat directory) through it. Open runs on a data
// directory, OpenMemory on a device that keeps no files, Split reads its
// sources through readOnly, and tests wrap any of them to fault any call.
type device interface {
	create(name string) (file, error) // a new file, for writing; fails if name exists
	open(name string) (file, error)   // an existing file, for reading
	list() (map[string]int64, error)  // every regular file's size, by name
	rename(from, to string) error
	remove(name string) error
	truncate(name string, size int64) error
	syncDir() error // makes the creates, renames and removes so far durable
	durable() bool  // whether files outlive the process
}

// file is an open file of a device.
type file interface {
	io.Writer
	io.ReaderAt
	Sync() error
	Close() error
}

// dirDevice is a data directory; its files are *os.File.
type dirDevice string

// openDir makes dir if it is missing.
func openDir(dir string) (dirDevice, error) { return dirDevice(dir), os.MkdirAll(dir, 0o755) }

func (d dirDevice) path(name string) string { return filepath.Join(string(d), name) }

func osFile(f *os.File, err error) (file, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (d dirDevice) create(name string) (file, error) {
	return osFile(os.OpenFile(d.path(name), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644))
}

func (d dirDevice) open(name string) (file, error) { return osFile(os.Open(d.path(name))) }

func (d dirDevice) list() (map[string]int64, error) {
	entries, err := os.ReadDir(string(d))
	if err != nil {
		return nil, err
	}
	files := make(map[string]int64, len(entries))
	for _, e := range entries {
		// An Info error: deleted by a compaction since the listing.
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			files[e.Name()] = fi.Size()
		}
	}
	return files, nil
}

func (d dirDevice) rename(from, to string) error { return os.Rename(d.path(from), d.path(to)) }
func (d dirDevice) remove(name string) error     { return os.Remove(d.path(name)) }

func (d dirDevice) truncate(name string, size int64) error { return os.Truncate(d.path(name), size) }

// syncDir fsyncs the directory. A filesystem that cannot fsync one says
// EINVAL, and is taken at its word.
func (d dirDevice) syncDir() error {
	f, err := os.Open(string(d))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return err
	}
	return nil
}

func (dirDevice) durable() bool { return true }

// nullDevice keeps no files: every create succeeds and drops what is
// written to it, and nothing opens or lists.
type nullDevice struct{}

type nullFile struct{}

func (nullDevice) create(string) (file, error)     { return nullFile{}, nil }
func (nullDevice) open(string) (file, error)       { return nil, fs.ErrNotExist }
func (nullDevice) list() (map[string]int64, error) { return nil, nil }
func (nullDevice) rename(string, string) error     { return nil }
func (nullDevice) remove(string) error             { return nil }
func (nullDevice) truncate(string, int64) error    { return nil }
func (nullDevice) syncDir() error                  { return nil }
func (nullDevice) durable() bool                   { return false }
func (nullFile) Write(p []byte) (int, error)       { return len(p), nil }
func (nullFile) ReadAt([]byte, int64) (int, error) { return 0, io.EOF }
func (nullFile) Sync() error                       { return nil }
func (nullFile) Close() error                      { return nil }

// readOnly reads a directory and drops every change, as nullDevice does:
// Split opens its sources through it, so that a split writes nothing there.
type readOnly struct {
	nullDevice
	dir dirDevice
}

func (d readOnly) open(name string) (file, error)  { return d.dir.open(name) }
func (d readOnly) list() (map[string]int64, error) { return d.dir.list() }
