package store

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// exportRecords splits an ExportState body into its magic and each app's
// framed record.
func exportRecords(t *testing.T, body []byte) (magic string, recs map[string][]byte) {
	t.Helper()
	recs = map[string][]byte{}
	if _, err := readRecords(bytes.NewReader(body), func(p []byte) error {
		if magic == "" {
			magic = string(p)
			return nil
		}
		app, _, err := decodeSnapshotApp(p)
		recs[app] = appendRecord(nil, p)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return magic, recs
}

// TestBootstrapRecordsGolden pins the bytes a follower bootstrap carries:
// the v3 magic, then one inline snapshot record per app — a window of
// deltas, a window whose chunk went raw, and a cold app, whose window is
// read from its page and sent inline like the others.
func TestBootstrapRecordsGolden(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Sync: SyncNever, CompactEvery: -1})
	defer s.Close()
	for app, w := range map[string][]float64{
		"delta": {0, 0, 1.5, 1.5, 2},
		"raw":   {0.137, 0.291, 0.513},
		"cold":  {4, 0, 0, 4.25},
	} {
		for _, v := range w {
			if err := s.Append(app, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.PageOut("cold"); err != nil || s.PagedApps() != 1 {
		t.Fatalf("PageOut: %v, %d cold apps", err, s.PagedApps())
	}
	if !s.apps["raw"].cw.raw || s.apps["delta"].cw.raw {
		t.Fatal("setup: want one raw-chunk window and one delta window")
	}
	body, _, err := s.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	magic, recs := exportRecords(t, body)
	if magic != snapMagicV3 {
		t.Fatalf("magic %q, want %q", magic, snapMagicV3)
	}
	golden := map[string]string{
		// frame (length 26, CRC) | tag 00 | name | total 5 | 5 values in 16
		// stream bytes: head 0, then deltas 0, 1.5 (bf f0 03), 0, 2 (ff f0 03)
		"delta": "1a000000" + "2f492a85" + "00" + "0564656c7461" + "05" + "05" + "10" +
			"0000000000000000" + "00" + "bff003" + "00" + "fff003",
		// head 0.137, the raw marker 80 00, then 0.291 and 0.513 as raw words
		"raw": "22000000" + "42f4f57f" + "00" + "03726177" + "03" + "03" + "1a" +
			"f0a7c64b3789c13f" + "8000" + "39b4c876be9fd23f" + "d122dbf97e6ae03f",
		// head 4, then deltas 4->0 (c0 20), 0, 0->4.25 (c0 22)
		"cold": "16000000" + "2bbba851" + "00" + "04636f6c64" + "04" + "04" + "0d" +
			"0000000000001040" + "c020" + "00" + "c022",
	}
	if len(recs) != len(golden) {
		t.Fatalf("%d records, want %d", len(recs), len(golden))
	}
	for app, want := range golden {
		if got := hex.EncodeToString(recs[app]); got != want {
			t.Errorf("%s record\n got %s\nwant %s", app, got, want)
		}
	}
	if s.PagedApps() != 1 {
		t.Error("the export paged the cold app in")
	}
}

// TestImportStateReadsV1: the body an older primary sends — the v1 magic
// and raw float64 records, from the frozen writer — imports to the same
// windows and totals, durably.
func TestImportStateReadsV1(t *testing.T) {
	wins := map[string][]float64{
		"alpha": {1, 2.5, 0, math.Inf(1), -0.125, 0.137, 0.291},
		"beta":  {0, 0, 0, 42},
		"gamma": {},
	}
	totals := map[string]int64{"alpha": 9, "beta": 4, "gamma": 3}
	body := appendRecord(nil, []byte(snapMagic))
	for app, w := range wins {
		body = appendRecord(body, encodeWireApp(nil, app, w, totals[app]))
	}
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncNever, CompactEvery: -1})
	pos := ReplPos{Seq: 3, Off: 9}
	if err := s.ImportState(body, pos); err != nil {
		t.Fatal(err)
	}
	check := func(s *Store, when string) {
		t.Helper()
		for app, w := range wins {
			got, total, ok := s.exportApp(app)
			if !ok || total != totals[app] {
				t.Fatalf("%s: %q total %d (ok %v), want %d", when, app, total, ok, totals[app])
			}
			assertBitIdentical(t, got, w, when+": "+app)
		}
		if s.Apps() != 3 || s.TotalObservations() != 16 {
			t.Fatalf("%s: %d apps, %d observations, want 3 and 16", when, s.Apps(), s.TotalObservations())
		}
		if cur, ok := s.ReplCursor(); !ok || cur != pos {
			t.Fatalf("%s: cursor %s (ok %v), want %s", when, cur, ok, pos)
		}
	}
	check(s, "imported")
	s = mustOpen(t, dir, Options{Sync: SyncNever, CompactEvery: -1}) // crash: no Close
	defer s.Close()
	check(s, "reopened")
}

// TestImportStateRefusals: a body holding a page stub, one whose magic
// names a newer femux-snap format, and a body torn anywhere inside a
// record are each refused, and the follower keeps its windows, totals,
// cursor and files.
func TestImportStateRefusals(t *testing.T) {
	primary := mustOpen(t, t.TempDir(), Options{Sync: SyncNever, CompactEvery: -1})
	defer primary.Close()
	if err := primary.AppendBatch(pageFleet(6, 20, 3)); err != nil {
		t.Fatal(err)
	}
	if err := primary.PageOut(appName(2)); err != nil {
		t.Fatal(err)
	}
	good, pos, err := primary.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncNever, CompactEvery: -1})
	defer s.Close()
	if err := s.AppendBatch(pageFleet(3, 5, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendReplicated(nil, ReplPos{Seq: 2, Off: 0}); err != nil {
		t.Fatal(err)
	}
	wantWins, wantTotal := s.Windows(), s.TotalObservations()
	wantCursor, _ := s.ReplCursor()
	wantFiles := listDir(t, dir)
	unchanged := func(what string) {
		t.Helper()
		if cur, _ := s.ReplCursor(); cur != wantCursor || s.TotalObservations() != wantTotal {
			t.Fatalf("%s: cursor %s and total %d, want %s and %d", what, cur, s.TotalObservations(), wantCursor, wantTotal)
		}
		wins := s.Windows()
		if len(wins) != len(wantWins) {
			t.Fatalf("%s: %d apps, want %d", what, len(wins), len(wantWins))
		}
		for app, w := range wantWins {
			assertBitIdentical(t, wins[app], w, what+": "+app)
		}
		if files := listDir(t, dir); fmt.Sprint(files) != fmt.Sprint(wantFiles) {
			t.Fatalf("%s: files %v, want %v", what, files, wantFiles)
		}
	}

	stub := appendRecord(appendRecord(nil, []byte(snapMagicV3)), encodeSnapshotApp(nil, "x",
		&appState{total: 3, page: &pageRef{seq: 1, recLen: 40, count: 3}}))
	if err := s.ImportState(stub, pos); err == nil {
		t.Fatal("a page stub imported")
	}
	unchanged("page stub")
	v9 := appendRecord(appendRecord(nil, []byte("femux-snap-v9")), []byte("a record this build cannot read"))
	if err := s.ImportState(v9, pos); !errors.Is(err, errSnapshotFormat) {
		t.Fatalf("femux-snap-v9: %v, want errSnapshotFormat", err)
	}
	unchanged("femux-snap-v9")
	torn := 0
	for cut := 0; cut < len(good); cut++ {
		if cut > 0 && validRecordPrefix(good[:cut]) == cut {
			continue // a record boundary: a shorter, intact stream
		}
		if err := s.ImportState(good[:cut], pos); err == nil {
			t.Fatalf("body torn at %d of %d bytes imported", cut, len(good))
		}
		unchanged(fmt.Sprintf("torn at %d", cut))
		torn++
	}
	if torn < len(good)-8 {
		t.Fatalf("only %d torn cuts of %d bytes", torn, len(good))
	}
	if err := s.ImportState(good, pos); err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, primary, s)
}

// BenchmarkBootstrap times one follower bootstrap, ExportState on the
// primary and ImportState on the follower, over a fixed fleet: 10,000
// apps × 1,440 values shaped like the 100k-app shard of EXPERIMENTS.md's
// "Resizing a fleet" (each value 0 with probability 0.9, else
// rng.Float64()·50; seed 1), every fifth app cold. It reports the body's
// bytes per observation and the time of each half.
func BenchmarkBootstrap(b *testing.B) {
	const apps, values = 10000, 1440
	opt := Options{Sync: SyncNever, CompactEvery: -1}
	primary, err := Open(b.TempDir(), opt)
	if err != nil {
		b.Fatal(err)
	}
	defer primary.Close()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < apps; i++ {
		st := &appState{total: values}
		for j := 0; j < values; j++ {
			v := 0.0
			if rng.Float64() >= 0.9 {
				v = rng.Float64() * 50
			}
			st.cw.Append(v)
		}
		app := fmt.Sprintf("app-%05d", i)
		primary.apps[app] = st
		if i%5 == 0 {
			if err := primary.PageOut(app); err != nil {
				b.Fatal(err)
			}
		}
	}
	follower, err := Open(b.TempDir(), opt)
	if err != nil {
		b.Fatal(err)
	}
	defer follower.Close()

	var export, imp time.Duration
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		body, pos, err := primary.ExportState()
		if err != nil {
			b.Fatal(err)
		}
		mid := time.Now()
		if err := follower.ImportState(body, pos); err != nil {
			b.Fatal(err)
		}
		export, imp, size = export+mid.Sub(start), imp+time.Since(mid), len(body)
	}
	b.StopTimer()
	if got := follower.TotalObservations(); got != apps*values {
		b.Fatalf("follower holds %d observations, want %d", got, apps*values)
	}
	b.ReportMetric(float64(size)/(apps*values), "B/obs")
	b.ReportMetric(export.Seconds()/float64(b.N), "export-s/op")
	b.ReportMetric(imp.Seconds()/float64(b.N), "import-s/op")
}
