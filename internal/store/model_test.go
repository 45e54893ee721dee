package store

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
)

// modelA and modelB stand for two serving models' bytes; modelB spans
// two records.
var (
	modelA = []byte(`{"version": 1, "model": "a"}`)
	modelB = bytes.Repeat([]byte("model b "), maxRecordLen/8+3)
)

// TestModelFileHousekeeping: the model file outlives a reopen, a
// compaction that runs the page GC and deletes what its snapshot
// supersedes, and a reopen after both, byte for byte; and Open removes
// the model temp file a crash between its create and its rename leaves.
func TestModelFileHousekeeping(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Sync: SyncNever, CompactEvery: -1}
	s := mustOpen(t, dir, opt)
	if s.Model() != nil {
		t.Fatal("a new store holds a model")
	}
	if err := s.SaveModel(modelB); err != nil {
		t.Fatal(err)
	}
	stored, err := os.ReadFile(filepath.Join(dir, modelName))
	if err != nil {
		t.Fatal(err)
	}
	check := func(s *Store, when string) {
		t.Helper()
		if !bytes.Equal(s.Model(), modelB) {
			t.Fatalf("%s: the store holds a model of %d bytes, want %d", when, len(s.Model()), len(modelB))
		}
		if got, err := os.ReadFile(filepath.Join(dir, modelName)); err != nil || !bytes.Equal(got, stored) {
			t.Fatalf("%s: the model file changed (%v)", when, err)
		}
	}
	obs := pageFleet(6, 20, 31)
	if err := s.AppendBatch(obs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s.PageOut(appName(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.pg.deadBytes += pageGCMinDead // the compaction's page GC is due
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	check(s, "after a compaction with page GC")
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, modelName+snapTempSuffix), modelA, 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, opt)
	defer r.Close()
	check(r, "after a reopen")
	assertExactPrefix(t, r, obs)
	if _, err := os.Stat(filepath.Join(dir, modelName+snapTempSuffix)); !os.IsNotExist(err) {
		t.Errorf("the model temp file survived a reopen: %v", err)
	}
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	check(r, "after a compaction of the reopened store")
}

// TestCorruptModelFileFailsOpen: a model file that does not read back
// fails Open with an error naming it, and leaves it as it was, rather than
// open a store a caller would serve another model from.
func TestCorruptModelFileFailsOpen(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(b []byte) []byte
	}{
		{"flipped_byte", func(b []byte) []byte { b[len(b)-3] ^= 0xff; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-5] }},
		{"magic_only", func([]byte) []byte { return appendRecord(nil, []byte(modelMagic)) }},
		{"foreign_magic", func([]byte) []byte {
			return appendRecord(appendRecord(nil, []byte("femux-model-v9")), modelA)
		}},
		{"empty", func([]byte) []byte { return nil }},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{Sync: SyncNever})
			if err := s.SaveModel(modelA); err != nil {
				t.Fatal(err)
			}
			s.Close()
			path := filepath.Join(dir, modelName)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b = c.corrupt(b)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirFiles(t, dir)
			if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), modelName) {
				t.Fatalf("Open = %v, want an error naming %s", err, modelName)
			}
			if after := dirFiles(t, dir); !maps.Equal(before, after) {
				t.Errorf("the refused directory changed: %v -> %v", keys(before), keys(after))
			}
		})
	}
}

func keys(m map[string]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestModelWriteAtEverySyscall replaces a stored model (or stores a first
// one) on a crash device once per device call the write makes. With the
// power lost just before that call, the reopened store holds the old
// model or the new one, never neither; with that call failing instead,
// SaveModel returns its error and the store holds the old model, as does
// one reopened on the directory, before a crash and after one.
func TestModelWriteAtEverySyscall(t *testing.T) {
	for _, old := range [][]byte{nil, modelA} {
		t.Run(fmt.Sprintf("old=%d_bytes", len(old)), func(t *testing.T) {
			var calls []string
			seeded := func(inject func(op, name string) error) (*crashDevice, *Store) {
				cd := newCrashDevice()
				s := mustOpenOn(t, cd, Options{Sync: SyncAlways})
				if old != nil {
					if err := s.SaveModel(old); err != nil {
						t.Fatal(err)
					}
				}
				s.dev = &faultDevice{cd, inject}
				return cd, s
			}
			_, s := seeded(func(op, name string) error { calls = append(calls, op+" "+name); return nil })
			if err := s.SaveModel(modelB); err != nil {
				t.Fatal(err)
			}
			if len(calls) < 6 {
				t.Fatalf("a model write made %d device calls: %v", len(calls), calls)
			}
			reopened := func(cd *crashDevice) []byte {
				t.Helper()
				r, err := open(cd, Options{Sync: SyncAlways})
				if err != nil {
					t.Fatal(err)
				}
				return r.Model()
			}
			for k, call := range calls {
				// Power lost just before call k.
				n := 0
				var cd, crashed *crashDevice
				cd, s = seeded(func(string, string) error {
					if n++; n-1 == k {
						crashed = &crashDevice{files: maps.Clone(cd.files), stable: maps.Clone(cd.stable)}
						crashed.crash()
					}
					return nil
				})
				if err := s.SaveModel(modelB); err != nil {
					t.Fatal(err)
				}
				if got := reopened(crashed); !bytes.Equal(got, old) && !bytes.Equal(got, modelB) {
					t.Fatalf("a crash at call %d (%s) left a model of %d bytes, neither the old nor the new", k, call, len(got))
				}
				cd.crash()
				if got := reopened(cd); !bytes.Equal(got, modelB) {
					t.Fatalf("a crash after the write returned: a model of %d bytes, want the new one", len(got))
				}

				// Call k fails.
				for _, fault := range []error{syscall.ENOSPC, syscall.EIO, errShortWrite} {
					if fault == errShortWrite && !strings.HasPrefix(call, "write ") {
						continue
					}
					n = 0
					cd, s = seeded(func(string, string) error {
						if n++; n-1 == k {
							return fault
						}
						return nil
					})
					if err := s.SaveModel(modelB); !errors.Is(err, fault) {
						t.Fatalf("%v at call %d (%s): SaveModel = %v", fault, k, call, err)
					}
					if !bytes.Equal(s.Model(), old) {
						t.Fatalf("%v at call %d (%s): the store holds the new model", fault, k, call)
					}
					if got := reopened(&crashDevice{files: maps.Clone(cd.files), stable: maps.Clone(cd.stable)}); !bytes.Equal(got, old) {
						t.Fatalf("%v at call %d (%s): reopened, a model of %d bytes, want the old one", fault, k, call, len(got))
					}
					cd.crash()
					if got := reopened(cd); !bytes.Equal(got, old) {
						t.Fatalf("%v at call %d (%s), then a crash: a model of %d bytes, want the old one", fault, k, call, len(got))
					}
				}
			}
		})
	}
}

// TestSaveModelAllocatesItsBytes saves a 2 KiB model to a memory store:
// the write buffer is sized to the model file, not to a snapshot's
// 1 MiB, so the save allocates a few times the model's bytes.
func TestSaveModelAllocatesItsBytes(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	b := bytes.Repeat([]byte("femux"), 410)[:2048]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.SaveModel(b); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("saving a %d-byte model allocated %d B, want under 64 KiB", len(b), got)
	}
}
