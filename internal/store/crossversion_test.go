package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sort"
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

// v4CompactWindowOf encodes values as a femux-snap-v4 data directory
// holds them: by the open chunk's encodings alone, which were all of
// Append then, so a full chunk stays decimal, delta or raw.
func v4CompactWindowOf(values []float64) CompactWindow {
	var cw CompactWindow
	for _, v := range values {
		cw.appendOpen(v)
	}
	return cw
}

// TestV4DirectoryReopens: a femux-snap-v4 data directory, laid out byte
// by byte (see layOldDirectory) with windows whose full chunks are
// decimal, never packed, opens with every window Float64bits-identical,
// through the peek and the promoting restore. A compaction writes it
// femux-snap-v5, with the full thousandths chunks of every window the old
// snapshot held inline packed and the tail's open chunks decimal, and it
// reopens to the same windows. (A window read from an old page record
// keeps the chunks it was written with.) A femux-snap-v6 snapshot on top
// fails Open.
func TestV4DirectoryReopens(t *testing.T) {
	dir := t.TempDir()
	want, total, inline, images := layOldDirectory(t, dir, snapMagicV4, v4CompactWindowOf)
	olds := 0
	for _, cw := range images {
		if kinds, _ := chunkKinds(&cw); len(kinds) > 1 && kinds[0] == chunkDecimal {
			olds++
		}
	}
	if olds == 0 {
		t.Fatal("the v4 image holds no window whose full chunks are decimal")
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
	if !bytes.HasPrefix(data, headAppendRecord(nil, []byte(snapMagicV5))) {
		t.Fatalf("the compaction wrote %q..., want the %s magic", data[recordHeaderLen:min(len(data), 21)], snapMagicV5)
	}
	warm, _, err := readSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	packed := 0
	for app, st := range warm {
		if !inline[app] {
			continue
		}
		kinds, _ := chunkKinds(&st.cw)
		for c, k := range kinds {
			if k == chunkPacked {
				packed++
			}
			if full := c < len(kinds)-1 || st.cw.tail == cwChunkLen; full && k == chunkDecimal {
				t.Errorf("%s: full chunk %d of the v5 snapshot is decimal, not packed", app, c)
			}
		}
	}
	if packed == 0 {
		t.Fatal("the v5 snapshot holds no packed chunk")
	}
	s = mustOpen(t, dir, opt)
	check(s, "compacted and reopened")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	newer := appendRecord(nil, []byte("femux-snap-v6"))
	seq, _ := parseSeq(filepath.Base(snaps[0]), snapPrefix, snapSuffix)
	if err := os.WriteFile(filepath.Join(dir, snapName(seq+1)), newer, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(dir, opt); err == nil || !errors.Is(err, errUpgrade) || !strings.Contains(err.Error(), "femux-snap-v6") {
		if s != nil {
			s.Close()
		}
		t.Fatalf("Open over a femux-snap-v6 snapshot = %v, want errUpgrade naming it", err)
	}
}

// layOldDirectory writes into dir a data directory of the snapshot format
// magic: a snapshot of inline and paged apps whose windows encode
// encodes, the page file its stubs name, and a WAL tail of thousandths on
// top, long enough to open a chunk of its own per app. It returns every
// app's window and the fleet's total as they should open, which apps the
// snapshot holds inline, and the window images it wrote.
func layOldDirectory(t *testing.T, dir, magic string, encode func([]float64) CompactWindow) (want map[string][]float64, total int64, inline map[string]bool, images []CompactWindow) {
	t.Helper()
	want, inline = map[string][]float64{}, map[string]bool{}
	snap := headAppendRecord(nil, []byte(magic))
	var page, seg []byte
	// In name order, so which apps are inline, paged and paged out again
	// is the same on every run.
	shapes := restoreShapes()
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		vals := shapes[name]
		app := "old/" + name
		st := &appState{cw: encode(vals), total: int64(len(vals)) + 5}
		images = append(images, st.cw)
		var rec snapRecord = st
		if i%2 == 0 {
			inline[app] = true
		} else {
			framed := headAppendRecord(nil, encodeWireAppCompact(nil, app, st))
			rec = &coldApp{total: st.total, ref: pageRef{seq: 1, off: int64(len(page)), recLen: int32(len(framed)), count: uint32(len(vals))}}
			page = append(page, framed...)
		}
		snap = headAppendRecord(snap, rec.appendSnapshot(nil, app))
		want[app] = append([]float64(nil), vals...)
		total += st.total
		for j := 0; j < cwChunkLen+3; j++ {
			o := Observation{App: app, Concurrency: float64((j*7919+(i+1)*31)%20000) / 1000}
			seg = headAppendRecord(seg, encodeObservation(nil, o))
			want[app] = append(want[app], o.Concurrency)
			total++
		}
	}
	for name, data := range map[string][]byte{snapName(1): snap, pageName(1): page, segName(2): seg} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return want, total, inline, images
}

// TestV3EncoderIsTheFormat: the v3 encoder above writes what the open
// chunk's encodings write wherever no chunk turns decimal — on dyadic
// values, on values decimal at no exponent, and on the specials — and
// those write what Append does wherever no full chunk packs.
func TestV3EncoderIsTheFormat(t *testing.T) {
	v3s := 0
	for name, vals := range restoreShapes() {
		v4 := v4CompactWindowOf(vals)
		if kinds, _ := chunkKinds(&v4); !slices.Contains(kinds, chunkDecimal) {
			v3s++
			if v3 := v3CompactWindowOf(vals); !bytes.Equal(v3.buf, v4.buf) {
				t.Errorf("%s: the v3 encoder wrote %x, the v4 one %x", name, v3.buf, v4.buf)
			}
		}
		cw := compactWindowOf(vals)
		if kinds, _ := chunkKinds(&cw); !slices.Contains(kinds, chunkPacked) && !bytes.Equal(v4.buf, cw.buf) {
			t.Errorf("%s: the v4 encoder wrote %x, the current one %x", name, v4.buf, cw.buf)
		}
	}
	if v3s == 0 {
		t.Error("no shape is free of decimal chunks: the v3 encoder is compared with nothing")
	}
}
