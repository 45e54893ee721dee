package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// SyncPolicy controls when appended records reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs before every Append/AppendBatch returns: an
	// acknowledged observation survives SIGKILL and power loss. Batches
	// still cost one fsync total (group commit).
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs from a background ticker every
	// syncInterval (100 ms): bounded loss window, much cheaper appends.
	SyncInterval
	// SyncNever leaves flushing to the OS page cache.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy maps the femuxd -fsync flag values onto a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval, or never)", s)
}

// Options tune durability and compaction. The zero value is the safest
// configuration: fsync on every append, 4 MiB segments, compaction every
// 64k records.
type Options struct {
	Sync         SyncPolicy
	SegmentBytes int64 // WAL segment rotation threshold; default 4 MiB
	// CompactEvery compacts the WAL into a snapshot after this many
	// appended records (0 = default 65536, negative = never).
	CompactEvery int
	// InlineBudget bounds how many apps keep their compact window in
	// memory (0 = unlimited): the excess is paged to disk by a CLOCK
	// sweep, each leaving a 40-byte cold-table entry. Enforced on the apply
	// path, so boot replay of a fleet larger than the budget also lands
	// mostly cold instead of materializing every app.
	InlineBudget int
}

// syncInterval is the SyncInterval policy's fsync period: the most a
// crash can lose of acknowledged appends.
const syncInterval = 100 * time.Millisecond

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.CompactEvery == 0 {
		o.CompactEvery = 1 << 16
	}
	return o
}

// Observation is one app-interval average-concurrency sample.
type Observation struct {
	App         string
	Concurrency float64
}

// Stats is a point-in-time snapshot of the store's durability state.
type Stats struct {
	Apps         int
	Observations int64 // lifetime records (restored + appended)
	Segments     int   // live WAL segment files
	Snapshots    int
	WALBytes     int64 // bytes across live segments
	Fsyncs       int64
	TornTail     bool  // a torn/corrupt WAL tail was truncated on open
	Restored     int64 // records recovered from disk on open

	PagedApps   int   // cold apps whose window lives in a page file
	PageFiles   int   // live page files
	PageBytes   int64 // bytes across live page files
	WindowBytes int64 // heap bytes retained by in-memory compact windows
	PageErrors  int64 // page-in failures (window lost, total kept)
	PageOuts    int64 // lifetime warm->cold demotions
	PageGCFails int64 // page-file rewrites abandoned on a read or write error
}

// Store is a durable per-app observation store: in-memory sliding
// windows backed by the segmented WAL and periodic snapshots. Every app
// is in exactly one of two tiers: the warm map holds the apps whose
// compact window is in memory, the cold table the stubs of those paged
// to disk. A page-out moves an app from warm to cold, a page-in back. A
// new app is keyed by the name AppendBatch is given, a page-in by the
// cold table's copy, and RestoreMemo hands the key to its caller, so one
// copy of a name serves the store and the service. All methods are safe
// for concurrent use.
type Store struct {
	mu       sync.Mutex
	dev      device
	opt      Options
	w        *wal
	pg       *pager
	warm     map[string]*appState
	cold     coldTable
	total    int64
	restored int64
	torn     bool
	appended int   // records since the last compaction
	pageErrs int64 // page-in failures (window lost, total kept)
	pageOuts int64 // lifetime warm->cold demotions

	// clock is the inline budget's CLOCK: while a budget is set, every
	// warm app has exactly one entry (at its appState.clock), which the
	// hand sweeps, and nothing else has one.
	clock []clockEntry
	hand  int

	// model is the serving model's bytes (see SaveModel), guarded by
	// modelMu: a model write does not hold up an append.
	modelMu sync.Mutex
	model   []byte

	closeOnce sync.Once
	stopSync  chan struct{}
	syncDone  chan struct{}
	closeErr  error
}

// Open recovers the store from dir (created if missing): the newest
// loadable snapshot is applied, younger WAL segments are replayed on top,
// and a torn tail — the signature of a crash mid-write — is truncated to
// the longest valid record prefix. Appends then go to a fresh segment.
// A directory this build does not read fails Open (see errUpgrade).
func Open(dir string, opt Options) (*Store, error) {
	dev, err := openDir(dir)
	if err != nil {
		return nil, err
	}
	return open(dev, opt)
}

// OpenMemory returns a Store on a device that keeps no files: the same
// code as Open's, but nothing outlives the process (Durable reports
// false). It never syncs, rotates a segment or compacts on its own.
func OpenMemory() *Store {
	s, _ := open(nullDevice{}, Options{Sync: SyncNever, CompactEvery: -1, SegmentBytes: math.MaxInt64}) // reads nothing: cannot fail
	return s
}

func open(dev device, opt Options) (*Store, error) {
	opt = opt.withDefaults()
	files, err := dev.list()
	if err != nil {
		return nil, err
	}
	for name := range files {
		if strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapTempSuffix) || name == modelName+snapTempSuffix {
			dev.remove(name) // left by a crash mid-snapshot or mid-model write
		}
	}
	s := &Store{dev: dev, opt: opt, warm: map[string]*appState{}, pg: openPager(dev, files)}
	if _, ok := files[modelName]; ok {
		if s.model, err = readModel(dev); err != nil {
			return nil, err
		}
	}

	// Load the newest snapshot that passes its CRC and magic checks.
	snapSeqs := seqsOf(files, snapPrefix, snapSuffix)
	var snapSeq uint64
	haveSnap := false
	for i := len(snapSeqs) - 1; i >= 0; i-- {
		warm, cold, err := loadSnapshot(dev, snapSeqs[i])
		if errors.Is(err, errUpgrade) {
			return nil, err
		}
		if err != nil {
			continue // half-written or corrupt snapshot: fall back
		}
		s.warm, s.cold = warm, *cold
		snapSeq, haveSnap = snapSeqs[i], true
		break
	}
	for app, st := range s.warm {
		s.total += st.total
		s.list(app, st)
	}
	s.cold.each(func(_ string, e *coldEntry) error {
		s.total += e.total
		s.pg.noteLive(e.ref())
		return nil
	})
	s.restored = s.total

	var replay []uint64
	maxSeq := snapSeq
	for _, seq := range seqsOf(files, segPrefix, segSuffix) {
		if seq > maxSeq {
			maxSeq = seq
		}
		if !haveSnap || seq > snapSeq {
			replay = append(replay, seq)
		}
	}
	pageSeq := s.pg.seq
	n, torn, err := replaySegments(dev, replay, s.applyPayloadLocked)
	if err != nil {
		// The page file the inline budget wrote while replaying, which no
		// snapshot names, goes too.
		s.pg.close()
		for seq := pageSeq; seq < s.pg.seq; seq++ {
			dev.remove(pageName(seq))
		}
		return nil, err
	}
	s.torn = torn
	s.restored += int64(n)

	w, err := openWAL(dev, maxSeq+1, opt.SegmentBytes)
	if err != nil {
		return nil, err
	}
	s.w = w

	if opt.Sync == SyncInterval {
		s.stopSync = make(chan struct{})
		s.syncDone = make(chan struct{})
		go s.syncLoop()
	}
	return s, nil
}

// Durable reports whether the store persists to a directory (Open) or
// holds its state in memory only (OpenMemory).
func (s *Store) Durable() bool { return s.dev.durable() }

func (s *Store) syncLoop() {
	defer close(s.syncDone)
	t := time.NewTicker(syncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			// A failed fsync is kept by the WAL and fails the store (Err).
			s.mu.Lock()
			s.w.sync()
			s.mu.Unlock()
		case <-s.stopSync:
			return
		}
	}
}

// Observation WAL record payload:
//
//	uvarint len(app) | app | float64 bits (little-endian)
func encodeObservation(buf []byte, obs Observation) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(obs.App)))
	buf = append(buf, obs.App...)
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(obs.Concurrency))
}

// decodeObservation parses an observation payload. The app name it
// returns aliases p.
func decodeObservation(p []byte) (app []byte, v float64, err error) {
	nameLen, n := binary.Uvarint(p)
	if n <= 0 || nameLen > uint64(len(p)-n) {
		return nil, 0, fmt.Errorf("store: observation record: bad app length")
	}
	p = p[n:]
	if uint64(len(p)) != nameLen+8 {
		return nil, 0, fmt.Errorf("store: observation record: %d bytes after the app name, want 8", uint64(len(p))-nameLen)
	}
	return p[:nameLen], math.Float64frombits(binary.LittleEndian.Uint64(p[nameLen:])), nil
}

// ctrlPrefix starts a WAL control record, which older builds wrote: a
// follower's replication batch, or an app import or tombstone of live
// resharding. No observation starts with it: an observation starts with
// the minimal uvarint of its app-name length, and 0xFF 0x00 is a
// non-minimal encoding of 127.
var ctrlPrefix = []byte{0xFF, 0x00, 'f', 'x'}

// errUpgrade fails Open on a data directory this build does not read: one
// whose snapshot has a format other than femux-snap-v4 and -v5, or whose
// WAL holds a control record. Open neither falls back to an older
// snapshot nor truncates the WAL there, since either would start the
// store without data the directory holds.
var errUpgrade = errors.New("this build reads femux-snap-v4 and femux-snap-v5 data directories only; " +
	"to upgrade an older one, run femux-split -from DIR -to NEWDIR built at commit a6e04f1, " +
	"the last build that reads it, and use NEWDIR")

// applyPayloadLocked folds one replayed WAL observation into the
// in-memory state. It keeps no byte of p. Called with s.mu held.
func (s *Store) applyPayloadLocked(p []byte) error {
	// Before decoding: binary.Uvarint takes the non-minimal 0xFF 0x00, so
	// a control record of the right length parses as an observation.
	if bytes.HasPrefix(p, ctrlPrefix) {
		return fmt.Errorf("a control record: %w", errUpgrade)
	}
	app, v, err := decodeObservation(p)
	if err != nil {
		// A frame whose checksum holds but whose payload is no observation
		// is corruption all the same: keep the valid prefix instead of
		// refusing to open.
		return fmt.Errorf("%v: %w", err, errTorn)
	}
	// The name is converted only for an app that is not warm.
	st := s.warm[string(app)]
	if st == nil {
		st = s.admit(string(app))
	}
	s.appendTo(st, v)
	return nil
}

// apply folds one observation into the in-memory state, transparently
// paging a cold app back in first. A new app is keyed by obs.App itself.
func (s *Store) apply(obs Observation) {
	st := s.warm[obs.App]
	if st == nil {
		st = s.admit(obs.App)
	}
	s.appendTo(st, obs.Concurrency)
}

// admit makes an app that is not warm warm and returns its record: a cold
// app paged in, or a new one, keyed by app, which the store keeps.
func (s *Store) admit(app string) *appState {
	if st, _ := s.pageInLocked(app, 0); st != nil {
		return st
	}
	st := &appState{}
	s.addWarm(app, st)
	return st
}

// appendTo appends one value to a warm app's record.
func (s *Store) appendTo(st *appState, v float64) {
	st.cw.Append(v)
	st.touched = true
	st.total++
	s.total++
	s.enforceInlineBudgetLocked()
}

// addWarm puts st in the warm map and, if a budget is set, in the CLOCK.
func (s *Store) addWarm(app string, st *appState) {
	s.warm[app] = st
	s.list(app, st)
}

// removeWarm takes st, app's warm record, out of the warm map and the
// CLOCK: nothing of the store refers to it afterwards.
func (s *Store) removeWarm(app string, st *appState) {
	delete(s.warm, app)
	if s.opt.InlineBudget > 0 {
		s.unlist(int(st.clock))
	}
}

// pageOutLocked demotes one warm app to cold.
func (s *Store) pageOutLocked(app string, st *appState) error {
	ref, err := s.pg.writeOut(app, st)
	if err != nil {
		return err
	}
	if err := s.cold.add(app, coldApp{ref: ref, total: st.total, memo: st.memo()}); err != nil {
		s.pg.free(ref)
		return err
	}
	s.removeWarm(app, st)
	s.pageOuts++
	return nil
}

// pageInLocked promotes a cold app to warm and returns its new record, and
// its values when mode asks for them; it returns nil if app is not cold.
// The record the stub points to is also covered by the snapshot+WAL chain
// until the next compaction, so a read failure here — torn page file after
// a crash mid-page-out, bit rot — costs the window only in the rare case
// that chain was already compacted past it; the durable total is kept
// either way and the app restarts with an empty window. The app is keyed
// by the cold table's copy of its name, not by app.
func (s *Store) pageInLocked(app string, mode cwMode) (*appState, []float64) {
	e := s.cold.get(app)
	if e == nil {
		return nil, nil
	}
	ref := e.ref()
	full, vals, err := s.pg.load(app, ref, mode|cwWindow)
	if err != nil {
		s.pageErrs++ // full and vals are empty: the window is lost
		s.pg.lostSeq = max(s.pg.lostSeq, ref.seq)
	}
	s.pg.free(ref)
	s.cold.markWarm(e)
	st := &appState{cw: full.cw, total: e.total}
	st.setMemo(e.memo())
	s.addWarm(s.cold.name(e), st)
	return st, vals
}

type clockEntry struct {
	app string
	st  *appState
}

// list gives a new warm record its CLOCK entry, if a budget is set.
// Caller holds s.mu.
func (s *Store) list(app string, st *appState) {
	if s.opt.InlineBudget > 0 {
		st.clock = uint32(len(s.clock))
		s.clock = append(s.clock, clockEntry{app, st})
	}
}

// unlist removes the CLOCK's entry i, moving its last entry there.
func (s *Store) unlist(i int) {
	last := len(s.clock) - 1
	s.clock[i] = s.clock[last]
	s.clock[i].st.clock = uint32(i)
	s.clock[last] = clockEntry{}
	s.clock = s.clock[:last]
}

// enforceInlineBudgetLocked pages out warm apps until the inline count
// fits Options.InlineBudget, picking victims with a CLOCK (second
// chance) sweep over the warm apps: one bit per app instead of an LRU
// list, which keeps the per-observation cost of a million-app fleet at
// a counter compare. Page-out failures abort the pass; the budget is
// advisory under I/O errors, never a reason to fail an append.
func (s *Store) enforceInlineBudgetLocked() {
	budget := s.opt.InlineBudget
	if budget <= 0 {
		return
	}
	// Two full passes suffice: the first clears reference bits, the
	// second demotes. The hand persists across calls, so steady-state
	// work is proportional to the overshoot, not the fleet.
	for scanned, limit := 0, 2*len(s.clock)+2; len(s.warm) > budget && scanned < limit; scanned++ {
		if s.hand >= len(s.clock) {
			s.hand = 0
		}
		e := s.clock[s.hand]
		if e.st.touched {
			e.st.touched = false
			s.hand++
		} else if s.pageOutLocked(e.app, e.st) != nil { // which unlists it
			return
		}
	}
}

// windowLocked materializes an app's window without changing its tier
// (cold apps are read from disk but stay cold); nil for an unknown app.
func (s *Store) windowLocked(app string) []float64 {
	if st := s.warm[app]; st != nil {
		return st.cw.Values(nil)
	}
	if e := s.cold.get(app); e != nil {
		return s.coldWindow(app, e)
	}
	return nil
}

// coldWindow reads a cold app's window from its page; nil if the page
// does not read.
func (s *Store) coldWindow(app string, e *coldEntry) []float64 {
	_, win, _ := s.pg.load(app, e.ref(), cwValues) // nil on an error
	return win
}

// warmState returns a known app's warm record or, for a cold app, a
// record of its own read from its page; the app itself stays cold. It is
// what Split writes.
func (s *Store) warmState(app string) (*appState, error) {
	if st := s.warm[app]; st != nil {
		return st, nil
	}
	full, _, err := s.pg.load(app, s.cold.get(app).ref(), cwWindow)
	return &full, err
}

// Append durably records one observation, then applies it in memory.
func (s *Store) Append(app string, concurrency float64) error {
	return s.AppendBatch([]Observation{{App: app, Concurrency: concurrency}})
}

// AppendBatch group-commits observations: every record is framed into one
// buffer, written with one syscall, and (under SyncAlways) made durable
// with a single fsync before any of them is applied in memory or
// acknowledged. An error means none of the batch was applied in memory;
// a crash immediately after a failed batch write may still replay a
// prefix of it, which restore treats like any other observation.
// The store keeps a new app's name as given, with its bytes: pass a name
// that holds no more than itself, not a substring of a request (the
// service passes its hot-tier entry's own copy, so both share one).
func (s *Store) AppendBatch(obs []Observation) error {
	if len(obs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return err
	}
	if err := s.w.appendObservations(obs, s.opt.Sync == SyncAlways); err != nil {
		return err
	}
	for _, o := range obs {
		s.apply(o)
	}
	s.appended += len(obs)
	if s.opt.CompactEvery > 0 && s.appended >= s.opt.CompactEvery {
		// A compaction failure must not fail the (already durable)
		// append; it is retried after another CompactEvery records.
		s.compactLocked()
	}
	return nil
}

// Window returns a copy of one app's restored-plus-live sliding window.
func (s *Store) Window(app string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.windowLocked(app)
}

// RestoreWindow returns one app's window, paging a cold app back in (it
// becomes warm) and keying it as RestoreMemo does. paged reports whether
// a disk read happened; ok is false for unknown apps.
func (s *Store) RestoreWindow(app string) (win []float64, paged bool, ok bool) {
	win, _, _, _, paged, ok = s.restore(app, cwValues)
	return win, paged, ok
}

// SetMemo attaches m (see Memo; zero clears) to an app, if it is known.
func (s *Store) SetMemo(app string, m Memo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.warm[app]; st != nil {
		st.setMemo(m)
	} else if e := s.cold.get(app); e != nil {
		e.setMemo(m)
	}
}

// RestoreMemo is the lazy serving-state restore: one app's count and
// Memo, paging a cold app back in (it becomes warm) without decoding a
// value. The values a restored app reads come from Recent. key is the
// name the store keys the app by, for the caller to keep instead of a
// copy of its own (see restore).
func (s *Store) RestoreMemo(app string) (key string, n int, m Memo, paged, ok bool) {
	_, key, n, m, paged, ok = s.restore(app, 0)
	return key, n, m, paged, ok
}

// restore promotes app to the warm tier and reports the name it keys the
// app by, its window length and Memo, and its values if mode has
// cwValues. The key is the cold table's copy of the name for an app that
// has been cold; any other app is keyed by app from then on.
func (s *Store) restore(app string, mode cwMode) (win []float64, key string, n int, m Memo, paged, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.warm[app]
	if paged = st == nil; paged {
		// A page-in decodes any values asked for in the same walk that
		// rebuilds the window.
		if st, win = s.pageInLocked(app, mode); st == nil {
			return nil, "", 0, Memo{}, false, false
		}
	}
	if e, _ := s.cold.find(app); e != nil {
		key = s.cold.name(e) // what a page-in keys the app by
	} else {
		key = app
		delete(s.warm, app) // so that the assignment stores app as the key
		s.warm[app] = st
		if s.opt.InlineBudget > 0 {
			s.clock[st.clock].app = app
		}
	}
	if win == nil && mode&cwValues != 0 {
		win = st.cw.Values(nil)
	}
	st.touched = true
	// Enforce after materializing: the sweep's second-chance pass may
	// legitimately re-demote this very app (tiny budgets), which leaves st
	// and the window we are about to hand to the caller as they are.
	s.enforceInlineBudgetLocked()
	return win, key, st.cw.Len(), st.memo(), paged, true
}

// Recent is CompactWindow.Recent over app's window, read from its page
// if the app is cold (it stays cold): a hot app's due block. It returns
// nothing for an unknown app or an unreadable page.
func (s *Store) Recent(app string, k, skip int, dst []float64) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var cw CompactWindow
	if st := s.warm[app]; st != nil {
		cw = st.cw
	} else if e := s.cold.get(app); e != nil {
		cold, _, _ := s.pg.load(app, e.ref(), cwWindow) // empty on an error
		cw = cold.cw
	}
	return cw.Recent(k, skip, dst)
}

// PageOut moves one app's compact window to disk, leaving a stub — the
// warm→cold demotion. Unknown or already-cold apps are a no-op, and so
// is every app of a memory store, which could not read a page back. The
// page write is buffered; it is fsynced before any snapshot that
// references the stub (see compactLocked), which is the only point the
// page copy becomes load-bearing for recovery.
func (s *Store) PageOut(app string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return fmt.Errorf("store: closed")
	}
	st := s.warm[app]
	if st == nil || !s.Durable() {
		return nil
	}
	return s.pageOutLocked(app, st)
}

// PagedApps reports how many apps are cold (paged to disk).
func (s *Store) PagedApps() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cold.len()
}

// TotalObservations reports lifetime observations (restored + appended).
// Because it is derived from durable state, the value survives SIGKILL
// and restart — the property the CI crash smoke test cross-checks.
func (s *Store) TotalObservations() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Apps reports how many applications have durable state.
func (s *Store) Apps() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.warm) + s.cold.len()
}

// AppNames returns the name of every app with durable state, sorted.
func (s *Store) AppNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.warm)+s.cold.len())
	for app := range s.warm {
		names = append(names, app)
	}
	s.cold.each(func(app string, _ *coldEntry) error {
		names = append(names, app)
		return nil
	})
	sort.Strings(names)
	return names
}

// Compact snapshots the in-memory state and deletes the WAL segments and
// snapshots it supersedes.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return fmt.Errorf("store: closed")
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	// Counted from the attempt, not from a success: each attempt seals a
	// segment, so a failing snapshot write must not be retried per append.
	s.appended = 0
	// Seal the current segment first: the snapshot then covers every
	// segment below the new head, and post-snapshot appends land in a
	// segment the snapshot does not claim.
	if err := s.w.rotate(); err != nil {
		return err
	}
	// Page files: rewrite live records if garbage dominates (a failed
	// rewrite keeps the old refs, is counted in Stats.PageGCFails and is
	// retried next compaction), then fsync — the snapshot below is the
	// first durable state to *depend* on page records, so they must be on
	// disk before it exists. A failed fsync, now or earlier, is recovered
	// from by rewriting the records it left in doubt.
	s.pg.maybeGC(&s.cold)
	if s.pg.sync() != nil {
		if err := s.pg.recover(&s.cold); err != nil {
			return err
		}
	}
	snapSeq := s.w.seq - 1
	if err := writeSnapshot(s.dev, snapSeq, s.warm, &s.cold); err != nil {
		return err
	}
	// Deletion is cleanup, not correctness: leftovers are re-deleted on
	// the next compaction, and restore ignores segments <= snapshot seq.
	files, _ := s.dev.list()
	s.pg.deleteBelow(&s.cold, files)
	for name := range files {
		seg, isSeg := parseSeq(name, segPrefix, segSuffix)
		snap, isSnap := parseSeq(name, snapPrefix, snapSuffix)
		if isSeg && seg <= snapSeq || isSnap && snap < snapSeq {
			s.dev.remove(name)
		}
	}
	s.dev.syncDir()
	return nil
}

// writable reports why the store takes no writes — it is closed, or its
// WAL has failed (see Err) — or nil. Caller holds s.mu.
func (s *Store) writable() error {
	if s.w == nil {
		return fmt.Errorf("store: closed")
	}
	return s.w.err
}

// Err reports the WAL failure that stopped the store, or nil. After the
// first failed write, fsync or segment rotation the store fails stop:
// every later append and Sync returns this error without writing anything.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return nil
	}
	return s.w.err
}

// Sync forces an fsync of the current segment (used by tests and the
// interval policy's shutdown path).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return nil
	}
	return s.w.sync()
}

// Stats reports the store's durability counters. The directory is listed
// after the lock is released, so a scrape never holds up an append; the
// file counts may therefore be one compaction apart from the rest.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Apps:         len(s.warm) + s.cold.len(),
		Observations: s.total,
		TornTail:     s.torn,
		Restored:     s.restored,
		PagedApps:    s.cold.len(),
		PageErrors:   s.pageErrs,
		PageOuts:     s.pageOuts,
		PageGCFails:  s.pg.gcFails,
	}
	if s.w != nil {
		st.Fsyncs = s.w.fsyncs.Load()
	}
	for _, a := range s.warm { // a cold app holds no window bytes
		st.WindowBytes += int64(a.cw.MemBytes())
	}
	s.mu.Unlock()
	files, _ := s.dev.list()
	for name, size := range files {
		if _, ok := parseSeq(name, segPrefix, segSuffix); ok {
			st.Segments++
			st.WALBytes += size
		} else if _, ok := parseSeq(name, snapPrefix, snapSuffix); ok {
			st.Snapshots++
		} else if _, ok := parseSeq(name, pagePrefix, pageSuffix); ok {
			st.PageFiles++
			st.PageBytes += size
		}
	}
	return st
}

// Close flushes and closes the WAL. The store rejects appends afterwards.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		if s.stopSync != nil {
			close(s.stopSync)
			<-s.syncDone
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.w != nil {
			s.closeErr = s.w.close()
			s.w = nil
		}
		if err := s.pg.close(); s.closeErr == nil {
			s.closeErr = err
		}
	})
	return s.closeErr
}
