package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// testRecords builds a deterministic set of observation payloads with
// varied sizes (app names of different lengths) and returns the framed
// WAL image plus the byte offset at which each record ends.
func testRecords(n int) (payloads [][]byte, image []byte, ends []int) {
	for i := 0; i < n; i++ {
		obs := Observation{
			App:         fmt.Sprintf("app-%0*d", (i%7)+1, i),
			Concurrency: float64(i) * 1.5,
		}
		p := encodeObservation(nil, obs)
		payloads = append(payloads, p)
		image = appendRecord(image, p)
		ends = append(ends, len(image))
	}
	return payloads, image, ends
}

// prefixLen maps a truncation offset to the number of fully-framed
// records that survive.
func prefixLen(ends []int, offset int) int {
	n := 0
	for _, e := range ends {
		if e <= offset {
			n++
		}
	}
	return n
}

// TestWALTruncationEveryOffset is the kill-at-every-byte-offset crash
// test: for every possible truncation point of a WAL segment, replay must
// recover exactly the records fully written before the cut, flag the torn
// tail when the cut lands mid-frame, and never panic.
func TestWALTruncationEveryOffset(t *testing.T) {
	payloads, image, ends := testRecords(25)
	for offset := 0; offset <= len(image); offset++ {
		var got [][]byte
		n, err := readRecords(bytes.NewReader(image[:offset]), false, func(p []byte) error {
			got = append(got, append([]byte(nil), p...))
			return nil
		})
		want := prefixLen(ends, offset)
		if n != want || len(got) != want {
			t.Fatalf("offset %d: recovered %d records, want %d", offset, n, want)
		}
		atBoundary := offset == 0 || (want > 0 && ends[want-1] == offset)
		if atBoundary {
			if err != nil {
				t.Fatalf("offset %d (record boundary): unexpected error %v", offset, err)
			}
		} else if !IsTorn(err) {
			t.Fatalf("offset %d (mid-frame): torn tail not detected, err=%v", offset, err)
		}
		for i := range got {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("offset %d: record %d corrupted on replay", offset, i)
			}
		}
	}
}

// TestWALCorruptionEveryByte flips every byte of the segment in turn:
// replay must stop at the damaged record (CRC or framing detects any
// single-byte error), keep the records before it intact, and never panic.
func TestWALCorruptionEveryByte(t *testing.T) {
	payloads, image, ends := testRecords(12)
	// recordOf maps a byte offset to the record whose frame contains it.
	recordOf := func(off int) int {
		for i, e := range ends {
			if off < e {
				return i
			}
		}
		return len(ends)
	}
	for off := 0; off < len(image); off++ {
		corrupt := append([]byte(nil), image...)
		corrupt[off] ^= 0xff
		var got [][]byte
		n, err := readRecords(bytes.NewReader(corrupt), false, func(p []byte) error {
			got = append(got, append([]byte(nil), p...))
			return nil
		})
		damaged := recordOf(off)
		// A corrupted length field may claim more bytes than remain, so
		// replay can only ever recover at most the records before the
		// damaged one, and must flag the tail.
		if n > damaged {
			t.Fatalf("offset %d: recovered %d records past damaged record %d", off, n, damaged)
		}
		if !IsTorn(err) {
			t.Fatalf("offset %d: corruption not detected (n=%d, err=%v)", off, n, err)
		}
		for i := range got {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("offset %d: surviving record %d does not match original", off, i)
			}
		}
	}
}

// TestStoreRecoversTruncatedSegment runs the same crash shape through the
// full Store: write observations, truncate the sealed segment at every
// offset, reopen, and assert the recovered windows are the exact prefix
// of the original observation sequence — and that the store stays
// writable after recovery.
func TestStoreRecoversTruncatedSegment(t *testing.T) {
	obs := make([]Observation, 40)
	for i := range obs {
		obs[i] = Observation{App: fmt.Sprintf("a%d", i%3), Concurrency: float64(i) / 4}
	}
	master := t.TempDir()
	st, err := Open(master, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch(obs); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSeqs(master, segPrefix, segSuffix)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, err = %v", segs, err)
	}
	image, err := os.ReadFile(filepath.Join(master, segName(segs[0])))
	if err != nil {
		t.Fatal(err)
	}
	var ends []int
	off := 0
	for _, o := range obs {
		off += recordHeaderLen + len(encodeObservation(nil, o))
		ends = append(ends, off)
	}
	if off != len(image) {
		t.Fatalf("segment is %d bytes, expected %d", len(image), off)
	}

	// Sampling every offset at the Store level keeps the test fast while
	// the exhaustive loop above covers pure framing; step 3 still crosses
	// every alignment class of the 8-byte header and both payload fields.
	for offset := 0; offset <= len(image); offset += 3 {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), image[:offset], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, Options{CompactEvery: -1})
		if err != nil {
			t.Fatalf("offset %d: Open: %v", offset, err)
		}
		want := prefixLen(ends, offset)
		if got := re.Stats().Restored; got != int64(want) {
			t.Fatalf("offset %d: restored %d records, want %d", offset, got, want)
		}
		if tornWant := want == 0 && offset > 0 || (want > 0 && ends[want-1] != offset); re.Stats().TornTail != tornWant {
			t.Fatalf("offset %d: TornTail = %v, want %v", offset, re.Stats().TornTail, tornWant)
		}
		// The surviving windows are the exact prefix of the original
		// sequence, value-for-value.
		wantWin := map[string][]float64{}
		for _, o := range obs[:want] {
			wantWin[o.App] = append(wantWin[o.App], o.Concurrency)
		}
		for app, w := range wantWin {
			got := re.Window(app)
			if len(got) != len(w) {
				t.Fatalf("offset %d: app %s window %d, want %d", offset, app, len(got), len(w))
			}
			for i := range w {
				if math.Float64bits(got[i]) != math.Float64bits(w[i]) {
					t.Fatalf("offset %d: app %s value %d differs", offset, app, i)
				}
			}
		}
		// Recovery leaves a writable store: the next append goes to a
		// fresh segment and survives another reopen.
		if err := re.Append("post-crash", 9.5); err != nil {
			t.Fatalf("offset %d: append after recovery: %v", offset, err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		re2, err := Open(dir, Options{CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		if got := re2.Window("post-crash"); len(got) != 1 || got[0] != 9.5 {
			t.Fatalf("offset %d: post-crash append lost: %v", offset, got)
		}
		re2.Close()
	}
}

// TestWALSegmentRotation forces tiny segments and checks records span
// files transparently.
func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{SegmentBytes: 128, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := st.Append("rot", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if segs, _ := listSeqs(dir, segPrefix, segSuffix); len(segs) < 3 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	w := re.Window("rot")
	if len(w) != n {
		t.Fatalf("restored %d values, want %d", len(w), n)
	}
	for i := range w {
		if w[i] != float64(i) {
			t.Fatalf("value %d = %g", i, w[i])
		}
	}
}

// TestWALFailStop pins the WAL's fail-stop contract. A write cut short,
// or a failed fsync, fails its own call and every later write path with
// the same error, without writing another byte: appending after a torn
// frame would put acked records where replay never reaches, and after a
// failed fsync a later one may succeed without the lost pages. A segment
// that fails to rotate after a batch's own write landed fails the calls
// after that batch, not the batch: its records replay on reopen, so it is
// acked and applied. Reopening the device then replays exactly the
// acknowledged observations.
func TestWALFailStop(t *testing.T) {
	for _, mode := range []string{"half-write", "fsync", "rotate"} {
		t.Run(mode, func(t *testing.T) {
			cd := newCrashDevice()
			armed, faulted, writesAfter := false, false, 0
			fault := map[string]func(string, string) error{
				"half-write": faultOnce(&armed, "write", segPrefix, errShortWrite),
				"fsync":      faultOnce(&armed, "sync", segPrefix, syscall.EIO),
				"rotate":     faultOnce(&armed, "close", segPrefix, syscall.EIO),
			}[mode]
			dev := &faultDevice{cd, func(op, name string) error {
				if faulted && op == "write" && strings.HasPrefix(name, segPrefix) {
					writesAfter++
				}
				err := fault(op, name)
				faulted = faulted || err != nil
				return err
			}}
			opt := Options{Sync: SyncNever, CompactEvery: -1}
			if mode == "rotate" {
				opt.SegmentBytes = 64
			}
			st := mustOpenOn(t, dev, opt)
			var acked []Observation
			for i := 0; i < 6; i++ {
				o := Observation{App: fmt.Sprintf("fs-%d", i%2), Concurrency: float64(i) + 0.5}
				if err := st.Append(o.App, o.Concurrency); err != nil {
					t.Fatal(err)
				}
				acked = append(acked, o)
			}
			armed = true
			var first error
			switch mode {
			case "half-write":
				first = st.Append("fs-0", 99)
			case "fsync":
				first = st.Sync()
			case "rotate":
				batch := make([]Observation, 8)
				for i := range batch {
					batch[i] = Observation{App: fmt.Sprintf("fs-%d", i%3), Concurrency: float64(i) + 0.25}
				}
				if err := st.AppendBatch(batch); err != nil {
					t.Fatalf("a batch written before its segment failed to rotate: %v", err)
				}
				acked = append(acked, batch...)
				first = st.Err()
			}
			if first == nil {
				t.Fatalf("%s: the failing call succeeded", mode)
			}
			if err := st.Err(); err != first {
				t.Fatalf("Err() = %v, want the first failure %v", err, first)
			}

			for _, w := range []struct {
				name  string
				write func() error
			}{
				{"Append", func() error { return st.Append("fs-1", 7) }},
				{"AppendBatch", func() error { return st.AppendBatch([]Observation{{App: "fs-2", Concurrency: 1}}) }},
				{"Sync", st.Sync},
			} {
				if err := w.write(); !errors.Is(err, first) {
					t.Errorf("%s after the failure = %v, want %v", w.name, err, first)
				}
			}
			if writesAfter != 0 {
				t.Errorf("%d WAL writes after the failure, want 0", writesAfter)
			}
			if got := st.TotalObservations(); got != int64(len(acked)) {
				t.Errorf("in-memory total = %d, want the %d acked", got, len(acked))
			}
			st.Close()

			re := mustOpenOn(t, cd, opt)
			defer re.Close()
			assertExactPrefix(t, re, acked)
		})
	}
}
