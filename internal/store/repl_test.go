package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// replicateOnce performs one step of the follower pull protocol: fetch a
// chunk from the primary at the follower's cursor (genesis position 1:0
// when no cursor exists yet) and apply it. A position that compaction
// deleted triggers the snapshot bootstrap path. Returns caughtUp when the
// follower's cursor has reached the primary's WAL head.
func replicateOnce(t *testing.T, primary, follower *Store) (caughtUp bool) {
	t.Helper()
	pos, ok := follower.ReplCursor()
	if !ok {
		pos = ReplPos{Seq: 1}
	}
	data, next, err := primary.ReadWALFrom(pos, 1<<20)
	if errors.Is(err, ErrCompacted) {
		state, spos, err := primary.ExportState()
		if err != nil {
			t.Fatalf("ExportState: %v", err)
		}
		if err := follower.ImportState(state, spos); err != nil {
			t.Fatalf("ImportState: %v", err)
		}
		return false
	}
	if err != nil {
		t.Fatalf("ReadWALFrom(%s): %v", pos, err)
	}
	if len(data) == 0 && next == pos {
		return true
	}
	if _, err := follower.AppendReplicated(data, next); err != nil {
		t.Fatalf("AppendReplicated(%d bytes, %s): %v", len(data), next, err)
	}
	return false
}

// catchUp drives replicateOnce until the follower reaches the primary's
// head, with a step bound so a protocol bug cannot hang the test.
func catchUp(t *testing.T, primary, follower *Store) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if replicateOnce(t, primary, follower) {
			return
		}
	}
	t.Fatal("follower did not catch up within 10000 protocol steps")
}

// assertStoresEqual requires bit-identical windows, identical totals, and
// identical app sets between two stores.
func assertStoresEqual(t *testing.T, want, got *Store) {
	t.Helper()
	ww, gw := want.Windows(), got.Windows()
	if len(ww) != len(gw) {
		t.Fatalf("app count: got %d, want %d", len(gw), len(ww))
	}
	for app, w := range ww {
		g, ok := gw[app]
		if !ok {
			t.Fatalf("app %q missing from replica", app)
		}
		if len(g) != len(w) {
			t.Fatalf("app %q: window %d, want %d", app, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("app %q value %d: %x, want %x (not bit-identical)",
					app, i, math.Float64bits(g[i]), math.Float64bits(w[i]))
			}
		}
	}
	if wt, gt := want.TotalObservations(), got.TotalObservations(); wt != gt {
		t.Fatalf("totals diverge: got %d, want %d", gt, wt)
	}
}

func mustOpen(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return st
}

// TestReplicationExactCopy: a follower that tails the primary's WAL ends
// bit-identical, across segment rotations, and its cursor lands exactly
// on the primary's WAL head.
func TestReplicationExactCopy(t *testing.T) {
	opt := Options{Sync: SyncNever, SegmentBytes: 512, CompactEvery: -1}
	primary := mustOpen(t, t.TempDir(), opt)
	defer primary.Close()
	follower := mustOpen(t, t.TempDir(), opt)
	defer follower.Close()

	for i := 0; i < 300; i++ {
		app := fmt.Sprintf("app-%d", i%7)
		if err := primary.Append(app, float64(i)+0.5); err != nil {
			t.Fatal(err)
		}
		if i%37 == 0 {
			catchUp(t, primary, follower)
		}
	}
	catchUp(t, primary, follower)
	assertStoresEqual(t, primary, follower)

	cur, ok := follower.ReplCursor()
	if !ok {
		t.Fatal("caught-up follower has no cursor")
	}
	head, err := primary.Position()
	if err != nil {
		t.Fatal(err)
	}
	if cur != head {
		t.Fatalf("cursor %s != primary head %s", cur, head)
	}
}

// TestReplicationCursorSurvivesRestart: a follower that crashes (no
// Close) or shuts down cleanly mid-stream restores its cursor and state
// from its own WAL and resumes exactly where it stopped — the
// exactly-once property of the atomic data+cursor record.
func TestReplicationCursorSurvivesRestart(t *testing.T) {
	for _, clean := range []bool{true, false} {
		t.Run(fmt.Sprintf("cleanClose=%v", clean), func(t *testing.T) {
			opt := Options{Sync: SyncNever, SegmentBytes: 512, CompactEvery: -1}
			primary := mustOpen(t, t.TempDir(), opt)
			defer primary.Close()
			fdir := t.TempDir()
			follower := mustOpen(t, fdir, opt)

			for i := 0; i < 60; i++ {
				if err := primary.Append(fmt.Sprintf("app-%d", i%3), float64(i)); err != nil {
					t.Fatal(err)
				}
			}
			catchUp(t, primary, follower)
			// More primary-side appends the follower has NOT seen.
			for i := 60; i < 90; i++ {
				if err := primary.Append(fmt.Sprintf("app-%d", i%3), float64(i)); err != nil {
					t.Fatal(err)
				}
			}
			wantCursor, _ := follower.ReplCursor()
			wantTotal := follower.TotalObservations()
			if clean {
				if err := follower.Close(); err != nil {
					t.Fatal(err)
				}
			}
			// Crash: simply abandon the store object and reopen the dir.
			follower = mustOpen(t, fdir, opt)
			defer follower.Close()
			if cur, ok := follower.ReplCursor(); !ok || cur != wantCursor {
				t.Fatalf("restored cursor %s (ok=%v), want %s", cur, ok, wantCursor)
			}
			if got := follower.TotalObservations(); got != wantTotal {
				t.Fatalf("restored total %d, want %d", got, wantTotal)
			}
			catchUp(t, primary, follower)
			assertStoresEqual(t, primary, follower)
		})
	}
}

// TestReplicationSnapshotBootstrap: when compaction has deleted the
// segment a fresh follower would start from, ReadWALFrom reports
// ErrCompacted and the ExportState/ImportState bootstrap brings the
// follower to an identical state, durably (cursor and state survive a
// follower crash immediately after the bootstrap).
func TestReplicationSnapshotBootstrap(t *testing.T) {
	popt := Options{Sync: SyncNever, SegmentBytes: 256, CompactEvery: 10}
	primary := mustOpen(t, t.TempDir(), popt)
	defer primary.Close()
	for i := 0; i < 80; i++ {
		if err := primary.Append(fmt.Sprintf("app-%d", i%4), float64(i)*1.5); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction must have deleted the genesis segment.
	if _, _, err := primary.ReadWALFrom(ReplPos{Seq: 1}, 1<<20); !errors.Is(err, ErrCompacted) {
		t.Fatalf("ReadWALFrom(1:0) after compaction: err = %v, want ErrCompacted", err)
	}
	// A position past the WAL head is the follower-ahead condition.
	if _, _, err := primary.ReadWALFrom(ReplPos{Seq: 1 << 30}, 1<<20); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("ReadWALFrom(future) = %v, want ErrOutOfRange", err)
	}

	fdir := t.TempDir()
	follower := mustOpen(t, fdir, Options{Sync: SyncNever, CompactEvery: -1})
	catchUp(t, primary, follower)
	assertStoresEqual(t, primary, follower)

	// Keep streaming after the bootstrap: the cursor from ImportState
	// must tail cleanly.
	for i := 80; i < 120; i++ {
		if err := primary.Append(fmt.Sprintf("app-%d", i%4), float64(i)*1.5); err != nil {
			t.Fatal(err)
		}
	}
	catchUp(t, primary, follower)
	assertStoresEqual(t, primary, follower)

	// Crash the follower: the imported snapshot plus cursor record must
	// restore byte-for-byte.
	wantCursor, _ := follower.ReplCursor()
	follower = mustOpen(t, fdir, Options{Sync: SyncNever, CompactEvery: -1})
	defer follower.Close()
	if cur, ok := follower.ReplCursor(); !ok || cur != wantCursor {
		t.Fatalf("post-crash cursor %s (ok=%v), want %s", cur, ok, wantCursor)
	}
	assertStoresEqual(t, primary, follower)
}

// TestReadWALFromEveryOffset is the replay-from-non-zero-offset
// regression test: for every record boundary in every retained segment,
// streaming from that position yields exactly the suffix of the append
// sequence, bit-identical — including positions inside sealed segments
// whose tail was torn mid-record.
func TestReadWALFromEveryOffset(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{Sync: SyncNever, SegmentBytes: 400, CompactEvery: -1})
	defer st.Close()

	var obs []Observation
	for i := 0; i < 48; i++ {
		o := Observation{App: fmt.Sprintf("app-%d", i%5), Concurrency: float64(i) + 0.125}
		if err := st.Append(o.App, o.Concurrency); err != nil {
			t.Fatal(err)
		}
		obs = append(obs, o)
	}

	// Map every record boundary to its global observation index. Each
	// Append writes exactly one record, so record k across segments in
	// order is obs[k].
	segs, err := listSeqs(dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments to make offsets interesting, got %d", len(segs))
	}
	type boundary struct {
		pos ReplPos
		idx int // index into obs of the first record at/after pos
	}
	var bounds []boundary
	idx := 0
	for _, seq := range segs {
		image, err := os.ReadFile(filepath.Join(dir, segName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		off := 0
		for off < len(image) {
			bounds = append(bounds, boundary{ReplPos{Seq: seq, Off: int64(off)}, idx})
			length := int(uint32(image[off]) | uint32(image[off+1])<<8 | uint32(image[off+2])<<16 | uint32(image[off+3])<<24)
			off += recordHeaderLen + length
			idx++
		}
		bounds = append(bounds, boundary{ReplPos{Seq: seq, Off: int64(off)}, idx})
	}
	if idx != len(obs) {
		t.Fatalf("segments hold %d records, appended %d", idx, len(obs))
	}

	scanFrom := func(pos ReplPos) []Observation {
		var got []Observation
		for step := 0; step < 1000; step++ {
			data, next, err := st.ReadWALFrom(pos, 1<<20)
			if err != nil {
				t.Fatalf("ReadWALFrom(%s): %v", pos, err)
			}
			if len(data) == 0 && next == pos {
				return got
			}
			if _, err := readRecords(bytes.NewReader(data), func(p []byte) error {
				o, err := decodeObservation(p)
				if err != nil {
					return err
				}
				got = append(got, o)
				return nil
			}); err != nil {
				t.Fatalf("chunk from %s not record-clean: %v", pos, err)
			}
			pos = next
		}
		t.Fatalf("scan from %s did not terminate", pos)
		return nil
	}

	for _, b := range bounds {
		got := scanFrom(b.pos)
		want := obs[b.idx:]
		if len(got) != len(want) {
			t.Fatalf("from %s: got %d records, want %d", b.pos, len(got), len(want))
		}
		for i := range want {
			if got[i].App != want[i].App ||
				math.Float64bits(got[i].Concurrency) != math.Float64bits(want[i].Concurrency) {
				t.Fatalf("from %s record %d: got %+v, want %+v", b.pos, i, got[i], want[i])
			}
		}
	}

	// Torn first record: truncate a sealed segment mid-record, so the
	// record at the last boundary is incomplete. Streaming from that
	// boundary must skip to the next segment (boot replay semantics) and
	// stay record-aligned; streaming from offset 0 must return the valid
	// prefix then skip.
	tornSeq := segs[1]
	path := filepath.Join(dir, segName(tornSeq))
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var segBounds []boundary
	var nextSegFirst int
	for _, b := range bounds {
		if b.pos.Seq == tornSeq {
			segBounds = append(segBounds, b)
		}
		if b.pos.Seq == tornSeq+1 && b.pos.Off == 0 {
			nextSegFirst = b.idx
		}
	}
	last := segBounds[len(segBounds)-2] // boundary of the final record
	for _, cut := range []int64{last.pos.Off + 3, last.pos.Off + recordHeaderLen + 2} {
		if err := os.WriteFile(path, image[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got := scanFrom(last.pos)
		want := obs[nextSegFirst:]
		if len(got) != len(want) {
			t.Fatalf("torn cut=%d: from %s got %d records, want %d (skip to next segment)",
				cut, last.pos, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("torn cut=%d record %d: got %+v, want %+v", cut, i, got[i], want[i])
			}
		}
		// From the segment start: valid prefix, then the skip.
		got = scanFrom(ReplPos{Seq: tornSeq})
		wantN := (last.idx - segBounds[0].idx) + len(obs[nextSegFirst:])
		if len(got) != wantN {
			t.Fatalf("torn cut=%d: from segment start got %d records, want %d", cut, len(got), wantN)
		}
	}
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}

	// A mid-frame position (a protocol violation) must not panic or
	// return torn bytes — whatever comes back decodes cleanly.
	scanFrom(ReplPos{Seq: tornSeq, Off: segBounds[0].pos.Off + 1})
}

// TestAppendReplicatedRejectsCorruptChunks: every single-byte corruption
// and every truncation of a replication chunk must be rejected whole,
// leaving windows, total, and cursor untouched; duplicated and gapped
// deliveries are rejected by the cursor checks.
func TestAppendReplicatedRejectsCorruptChunks(t *testing.T) {
	opt := Options{Sync: SyncNever, CompactEvery: -1}
	primary := mustOpen(t, t.TempDir(), opt)
	defer primary.Close()
	follower := mustOpen(t, t.TempDir(), opt)
	defer follower.Close()

	for i := 0; i < 4; i++ {
		if err := primary.Append(fmt.Sprintf("app-%d", i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	chunk1, next1, err := primary.ReadWALFrom(ReplPos{Seq: 1}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := follower.AppendReplicated(chunk1, next1); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 9; i++ {
		if err := primary.Append(fmt.Sprintf("app-%d", i%4), float64(i)+0.5); err != nil {
			t.Fatal(err)
		}
	}
	chunk2, next2, err := primary.ReadWALFrom(next1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	wantTotal := follower.TotalObservations()
	wantCursor, _ := follower.ReplCursor()
	wantWins := follower.Windows()
	unchanged := func(what string) {
		t.Helper()
		if got := follower.TotalObservations(); got != wantTotal {
			t.Fatalf("%s: total moved %d -> %d", what, wantTotal, got)
		}
		if cur, _ := follower.ReplCursor(); cur != wantCursor {
			t.Fatalf("%s: cursor moved %s -> %s", what, wantCursor, cur)
		}
		gotWins := follower.Windows()
		if len(gotWins) != len(wantWins) {
			t.Fatalf("%s: app set changed", what)
		}
	}

	// Single-byte corruption anywhere in the chunk.
	for i := range chunk2 {
		bad := append([]byte(nil), chunk2...)
		bad[i] ^= 0x40
		if _, err := follower.AppendReplicated(bad, next2); err == nil {
			t.Fatalf("corrupt byte %d accepted", i)
		}
		unchanged(fmt.Sprintf("corrupt byte %d", i))
	}
	// Every truncation: mid-frame cuts are torn, record-boundary cuts are
	// misaligned against the cursor. All must be rejected.
	for cut := 0; cut < len(chunk2); cut++ {
		if _, err := follower.AppendReplicated(chunk2[:cut], next2); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		unchanged(fmt.Sprintf("truncation at %d", cut))
	}
	// A gapped delivery (skipped fetch) and a duplicate delivery.
	if _, err := follower.AppendReplicated(chunk2, ReplPos{Seq: next2.Seq, Off: next2.Off + 16}); !errors.Is(err, ErrMisalignedChunk) {
		t.Fatalf("gapped chunk: err = %v, want ErrMisalignedChunk", err)
	}
	unchanged("gap")
	if _, err := follower.AppendReplicated(chunk1, next1); !errors.Is(err, ErrStaleChunk) {
		t.Fatalf("duplicate chunk: err = %v, want ErrStaleChunk", err)
	}
	unchanged("duplicate")

	// The pristine chunk still applies, and a second delivery of it is
	// then stale.
	if _, err := follower.AppendReplicated(chunk2, next2); err != nil {
		t.Fatalf("pristine chunk rejected after corruption probes: %v", err)
	}
	if _, err := follower.AppendReplicated(chunk2, next2); !errors.Is(err, ErrStaleChunk) {
		t.Fatalf("replayed chunk: err = %v, want ErrStaleChunk", err)
	}
	assertStoresEqual(t, primary, follower)
}

// TestAppendReplicatedSplitsOversizedChunks: a chunk bigger than one WAL
// record can hold must be split into multiple cursor-carrying batch
// records — and still survive a follower crash with data and cursor
// consistent.
func TestAppendReplicatedSplitsOversizedChunks(t *testing.T) {
	opt := Options{Sync: SyncNever, SegmentBytes: 64 << 20, CompactEvery: -1}
	primary := mustOpen(t, t.TempDir(), opt)
	defer primary.Close()
	fdir := t.TempDir()
	follower := mustOpen(t, fdir, opt)

	// ~1.5 MiB of observations in one segment: a single fetched chunk
	// cannot be wrapped into one record (maxRecordLen = 1 MiB).
	bigApp := make([]byte, 2048)
	for i := range bigApp {
		bigApp[i] = 'a' + byte(i%26)
	}
	var batch []Observation
	for i := 0; i < 700; i++ {
		batch = append(batch, Observation{
			App:         fmt.Sprintf("%s-%d", bigApp, i%11),
			Concurrency: float64(i) * 0.75,
		})
	}
	if err := primary.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	chunk, next, err := primary.ReadWALFrom(ReplPos{Seq: 1}, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk) <= maxRecordLen {
		t.Fatalf("test needs an oversized chunk, got %d bytes", len(chunk))
	}
	n, err := follower.AppendReplicated(chunk, next)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(batch) {
		t.Fatalf("applied %d observations, want %d", n, len(batch))
	}
	catchUp(t, primary, follower)
	assertStoresEqual(t, primary, follower)

	// Crash-reopen the follower: the split batch records must replay to
	// the same state and cursor.
	wantCursor, _ := follower.ReplCursor()
	follower = mustOpen(t, fdir, opt)
	defer follower.Close()
	if cur, ok := follower.ReplCursor(); !ok || cur != wantCursor {
		t.Fatalf("post-crash cursor %s (ok=%v), want %s", cur, ok, wantCursor)
	}
	assertStoresEqual(t, primary, follower)
}
