package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// v3CompactWindowOf encodes values as a femux-snap-v3 data directory
// holds them, written here from the v3 format rather than by the current
// encoder: each chunk is deltas, unless at some value its deltas came to
// cost more than the raw marker and its values after the head, in which
// case the whole chunk is raw.
func v3CompactWindowOf(values []float64) CompactWindow {
	var cw CompactWindow
	for c := 0; c < len(values); c += cwChunkLen {
		chunk := values[c:min(c+cwChunkLen, len(values))]
		cw.starts = append(cw.starts, uint32(len(cw.buf)))
		prev := math.Float64bits(chunk[0])
		cw.buf = binary.LittleEndian.AppendUint64(cw.buf, prev)
		var deltas []byte
		raw := false
		for k, v := range chunk[1:] {
			b := math.Float64bits(v)
			deltas = binary.AppendUvarint(deltas, bits.ReverseBytes64(b^prev))
			prev = b
			raw = raw || len(deltas) > len(cwRawMarker)+8*(k+1)
		}
		if raw {
			cw.buf = append(cw.buf, cwRawMarker...)
			for _, v := range chunk[1:] {
				cw.buf = binary.LittleEndian.AppendUint64(cw.buf, math.Float64bits(v))
			}
		} else {
			cw.buf = append(cw.buf, deltas...)
		}
	}
	cw.n = len(values)
	return cw
}

// TestV3DirectoryReopens: a femux-snap-v3 data directory, laid out byte
// by byte from the v3 format — a snapshot of inline and paged apps whose
// windows hold delta and raw chunks, the page file its stubs name, and a
// WAL tail on top — opens with every window Float64bits-identical,
// through the peek and the promoting restore. A compaction writes it
// femux-snap-v4, with the tail's new chunks decimal, and it reopens to the
// same windows. A femux-snap-v5 snapshot on top fails Open.
func TestV3DirectoryReopens(t *testing.T) {
	dir := t.TempDir()
	want := map[string][]float64{}
	snap := headAppendRecord(nil, []byte(snapMagicV3))
	var page, seg []byte
	var total int64
	rawChunks := 0
	i := 0
	for name, vals := range restoreShapes() {
		app := "v3/" + name
		st := &appState{cw: v3CompactWindowOf(vals), total: int64(len(vals)) + 5}
		rawChunks += bytes.Count(st.cw.buf, []byte(cwRawMarker))
		var rec snapRecord = st
		if i++; i%2 == 0 {
			framed := headAppendRecord(nil, encodeWireAppCompact(nil, app, st))
			rec = &coldApp{total: st.total, ref: pageRef{seq: 1, off: int64(len(page)), recLen: int32(len(framed)), count: uint32(len(vals))}}
			page = append(page, framed...)
		}
		snap = headAppendRecord(snap, rec.appendSnapshot(nil, app))
		want[app] = append([]float64(nil), vals...)
		total += st.total
		// A tail of thousandths long enough to open a chunk of its own.
		for j := 0; j < cwChunkLen+3; j++ {
			o := Observation{App: app, Concurrency: float64((j*7919+i*31)%20000) / 1000}
			seg = headAppendRecord(seg, encodeObservation(nil, o))
			want[app] = append(want[app], o.Concurrency)
			total++
		}
	}
	if rawChunks == 0 {
		t.Fatal("the v3 image holds no raw chunk")
	}
	for name, data := range map[string][]byte{snapName(1): snap, pageName(1): page, segName(2): seg} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	check := func(s *Store, when string) {
		t.Helper()
		if got := s.TotalObservations(); got != total {
			t.Fatalf("%s: total %d, want %d", when, got, total)
		}
		if got := s.Stats().PageErrors; got != 0 {
			t.Fatalf("%s: %d page errors", when, got)
		}
		for app, w := range want {
			assertBitIdentical(t, s.Window(app), w, when+": peek "+app)
			win, _, ok := s.RestoreWindow(app)
			if !ok {
				t.Fatalf("%s: %s missing", when, app)
			}
			assertBitIdentical(t, win, w, when+": restore "+app)
		}
	}
	opt := Options{Sync: SyncNever, CompactEvery: -1}
	s := mustOpen(t, dir, opt)
	check(s, "first open")
	decimal := 0
	for _, st := range s.warm {
		kinds, _ := chunkKinds(&st.cw)
		for _, k := range kinds {
			if k == chunkDecimal {
				decimal++
			}
		}
	}
	if decimal == 0 {
		t.Fatal("the WAL tail opened no decimal chunk")
	}
	for n, app := range s.AppNames() {
		if n%3 == 0 {
			if err := s.PageOut(app); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, snapPrefix+"*"+snapSuffix))
	if len(snaps) != 1 {
		t.Fatalf("%d snapshots after the compaction, want 1", len(snaps))
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, headAppendRecord(nil, []byte(snapMagicV4))) {
		t.Fatalf("the compaction wrote %q..., want the %s magic", data[recordHeaderLen:min(len(data), 21)], snapMagicV4)
	}
	s = mustOpen(t, dir, opt)
	check(s, "compacted and reopened")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	newer := appendRecord(nil, []byte("femux-snap-v5"))
	seq, _ := parseSeq(filepath.Base(snaps[0]), snapPrefix, snapSuffix)
	if err := os.WriteFile(filepath.Join(dir, snapName(seq+1)), newer, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(dir, opt); err == nil || !strings.Contains(err.Error(), "femux-snap-v5") {
		if s != nil {
			s.Close()
		}
		t.Fatalf("Open over a femux-snap-v5 snapshot = %v, want an error naming it", err)
	}
}

// TestV3EncoderIsTheFormat: the v3 encoder above writes what the current
// encoder writes wherever no chunk turns decimal: on dyadic values, on
// values decimal at no exponent, and on the specials.
func TestV3EncoderIsTheFormat(t *testing.T) {
	for name, vals := range restoreShapes() {
		cw := compactWindowOf(vals)
		if kinds, _ := chunkKinds(&cw); slices.Contains(kinds, chunkDecimal) {
			continue
		}
		if v3 := v3CompactWindowOf(vals); !bytes.Equal(v3.buf, cw.buf) {
			t.Errorf("%s: the v3 encoder wrote %x, the current one %x", name, v3.buf, cw.buf)
		}
	}
}
