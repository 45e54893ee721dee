package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay feeds arbitrary bytes through segment replay and a full
// store Open. Replay must either accept a valid record prefix or error
// cleanly — never panic, and never over-read (each accepted record
// accounts for at least 9 framed bytes, so the record count is bounded by
// the input size). Open must succeed, or fail with errUpgrade, not as a
// torn tail, leaving the segment's bytes as they were — and it must fail
// exactly when the first frame of the valid prefix that holds no
// observation is a control record.
func FuzzWALReplay(f *testing.F) {
	// Seed corpus: a genuine segment, its truncations, corruptions, and
	// degenerate shapes (zero runs, huge claimed lengths).
	var image []byte
	for i := 0; i < 6; i++ {
		image = appendRecord(image, encodeObservation(nil, Observation{App: "seed", Concurrency: float64(i)}))
	}
	f.Add(image)
	f.Add(image[:len(image)-3])
	corrupted := append([]byte(nil), image...)
	corrupted[10] ^= 0x80
	f.Add(corrupted)
	f.Add([]byte{})
	f.Add(make([]byte, 64))                                 // zero run: len=0 frames must be rejected
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2}) // absurd length claim
	f.Add(appendRecord(nil, []byte{}))                      // explicitly framed empty payload
	// Control records, which older builds wrote and Open refuses: a
	// follower's replication batches (nested, empty, malformed) and live
	// resharding's app imports and tombstones.
	frame := appendRecord(nil, encodeObservation(nil, Observation{App: "seed", Concurrency: 2}))
	for levels := 1; levels <= followerDepth+1; levels++ {
		f.Add(appendRecord(image, nestReplBatch(levels, 9, frame)))
	}
	f.Add(appendRecord(nil, encodeReplBatch(3, 0, nil)))                             // a bootstrap's cursor
	f.Add(appendRecord(nil, encodeReplBatch(3, 9, image[:len(image)-3])))            // torn inner tail
	f.Add(appendRecord(nil, append(append([]byte(nil), ctrlPrefix...), 0x01, 0x80))) // bad seq
	f.Add(appendRecord(nil, encodeAppImport("seed", []float64{1, 2, 3}, 3)))
	f.Add(appendRecord(nil, encodeTombstone("seed")))
	f.Add(appendRecord(nil, []byte{0xFF, 0x00, 'f', 'x', 0x7F})) // unknown control type
	f.Add(appendRecord(nil, ctrlPrefix))                         // the prefix alone
	// 0xFF 0x00 is a non-minimal uvarint of 127 that binary.Uvarint takes:
	// a control record of 137 bytes decodes as an observation.
	f.Add(appendRecord(image, append(append(append([]byte(nil), ctrlPrefix...), ctrlAppImport), make([]byte, 132)...)))
	// Behind a frame that holds no observation, a control record is never
	// reached: the tail is torn there.
	f.Add(appendRecord(appendRecord(image, []byte{0x05, 'a'}), encodeTombstone("seed")))

	f.Fuzz(func(t *testing.T, data []byte) {
		var n int
		records, err := readRecords(bytes.NewReader(data), false, func(p []byte) error {
			n++
			if len(p) == 0 || len(p) > maxRecordLen {
				t.Fatalf("replay surfaced out-of-range payload of %d bytes", len(p))
			}
			return nil
		})
		if records != n {
			t.Fatalf("readRecords reported %d records but called fn %d times", records, n)
		}
		if min := recordHeaderLen + 1; records > len(data)/min {
			t.Fatalf("%d records from %d bytes: over-read", records, len(data))
		}
		if err != nil && !IsTorn(err) {
			t.Fatalf("non-torn replay error on in-memory bytes: %v", err)
		}
		// Replay stops at the first frame that holds a control record or
		// no observation, and refuses the first.
		refused := false
		stop := errors.New("stop")
		readRecords(bytes.NewReader(data), false, func(p []byte) error {
			if refused = bytes.HasPrefix(p, ctrlPrefix); refused {
				return stop
			}
			_, _, err := decodeObservation(p)
			return err
		})

		// The full store opens on top of the same bytes: garbage decodes as
		// a torn tail, valid observation records are restored.
		dir := t.TempDir()
		seg := filepath.Join(dir, segName(1))
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{CompactEvery: -1})
		if err != nil {
			if !refused || !errors.Is(err, errUpgrade) || IsTorn(err) {
				t.Fatalf("Open = %v (torn %v); want success, or errUpgrade on a control record (%v)", err, IsTorn(err), refused)
			}
			if got, rerr := os.ReadFile(seg); rerr != nil || !bytes.Equal(got, data) {
				t.Fatalf("the refused Open changed the segment (%v)", rerr)
			}
			return
		}
		defer st.Close()
		if refused {
			t.Fatal("Open replayed a control record")
		}
		if got := st.Stats().Restored; got > int64(records) {
			t.Fatalf("store restored %d records from a log replay found %d in", got, records)
		}
	})
}
