package store

import (
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
	// Options.SyncInterval: bounded loss window, much cheaper appends.
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
	SyncInterval time.Duration // SyncInterval policy only; default 100ms
	SegmentBytes int64         // WAL segment rotation threshold; default 4 MiB
	// CompactEvery compacts the WAL into a snapshot after this many
	// appended records (0 = default 65536, negative = never).
	CompactEvery int
	// InlineBudget bounds how many apps keep their compact window in
	// memory (0 = unlimited): the excess is paged to disk by a CLOCK
	// sweep, each leaving a ~few-dozen-byte stub. Enforced on the apply
	// path, so boot replay of a fleet larger than the budget also lands
	// mostly cold instead of materializing every app.
	InlineBudget int
}

func (o Options) withDefaults() Options {
	if o.SyncInterval <= 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
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

// Store is a durable per-app observation store: an in-memory map of
// sliding windows backed by the segmented WAL and periodic snapshots.
// All methods are safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	dev      device
	opt      Options
	w        *wal
	pg       *pager
	apps     map[string]*appState
	total    int64
	restored int64
	torn     bool
	appended int   // records since the last compaction
	pageErrs int64 // page-in failures (window lost, total kept)
	pageOuts int64 // lifetime warm->cold demotions

	// clock is the inline budget's CLOCK: while a budget is set, every
	// warm app has one entry, which the hand sweeps; one gone cold or
	// dropped keeps it until the hand gets there.
	clock []clockEntry
	hand  int

	closeOnce sync.Once
	stopSync  chan struct{}
	syncDone  chan struct{}
	closeErr  error
}

// Open recovers the store from dir (created if missing): the newest
// loadable snapshot is applied, younger WAL segments are replayed on top,
// and a torn tail — the signature of a crash mid-write — is truncated to
// the longest valid record prefix. Appends then go to a fresh segment.
// A snapshot in a format newer than this build fails Open.
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
		if strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapTempSuffix) {
			dev.remove(name) // left by a crash mid-snapshot
		}
	}
	s := &Store{dev: dev, opt: opt, apps: map[string]*appState{}, pg: openPager(dev, files)}

	// Load the newest snapshot that passes its CRC and magic checks.
	snapSeqs := seqsOf(files, snapPrefix, snapSuffix)
	var snapSeq uint64
	haveSnap := false
	for i := len(snapSeqs) - 1; i >= 0; i-- {
		apps, err := loadSnapshot(dev, snapSeqs[i])
		if errors.Is(err, errSnapshotFormat) {
			return nil, err
		}
		if err != nil {
			continue // half-written or corrupt snapshot: fall back
		}
		s.apps = apps
		snapSeq, haveSnap = snapSeqs[i], true
		break
	}
	for app, st := range s.apps {
		s.total += st.total
		if st.page != nil {
			s.pg.noteLive(st.page)
		}
		s.list(app, st, false)
	}
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
	n, torn, err := replaySegments(dev, replay, func(payload []byte) error {
		if err := s.applyPayloadLocked(payload, 0); err != nil {
			// A frame whose checksum holds but whose payload is neither an
			// observation nor a valid control record is corruption all the
			// same: keep the valid prefix instead of refusing to open.
			return fmt.Errorf("%v: %w", err, errTorn)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.torn = torn
	s.restored += int64(n)
	s.total = 0
	for _, st := range s.apps {
		s.total += st.total
	}

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
	t := time.NewTicker(s.opt.SyncInterval)
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

func decodeObservation(p []byte) (Observation, error) {
	nameLen, n := binary.Uvarint(p)
	if n <= 0 || nameLen > uint64(len(p)-n) {
		return Observation{}, fmt.Errorf("store: observation record: bad app length")
	}
	p = p[n:]
	if uint64(len(p)) != nameLen+8 {
		return Observation{}, fmt.Errorf("store: observation record: %d bytes after the app name, want 8", uint64(len(p))-nameLen)
	}
	return Observation{
		App:         string(p[:nameLen]),
		Concurrency: math.Float64frombits(binary.LittleEndian.Uint64(p[nameLen:])),
	}, nil
}

// apply folds one observation into the in-memory state, transparently
// paging a cold app back in first.
func (s *Store) apply(obs Observation) {
	st := s.apps[obs.App]
	if st == nil {
		st = &appState{}
		s.apps[obs.App] = st
	}
	s.ensureInlineLocked(obs.App, st, 0, nil)
	st.cw.Append(obs.Concurrency)
	s.list(obs.App, st, true)
	st.total++
	s.total++
	s.enforceInlineBudgetLocked()
}

// pageOutLocked demotes one warm app to cold.
func (s *Store) pageOutLocked(app string, st *appState) error {
	ref, err := s.pg.writeOut(app, st)
	if err != nil {
		return err
	}
	st.cw = CompactWindow{}
	st.page = ref
	s.pageOuts++
	return nil
}

// An appState's bits in the inline budget's CLOCK (appState.flags).
const (
	clockTouched uint8 = 1 << iota // used since the hand last passed: second chance
	clockListed                    // has an entry in Store.clock
)

type clockEntry struct {
	app string
	st  *appState
}

// list gives a warm app its CLOCK entry, if a budget is set and it has
// none, and with touched, sets its reference bit. Caller holds s.mu.
func (s *Store) list(app string, st *appState, touched bool) {
	if touched {
		st.flags |= clockTouched
	}
	if s.opt.InlineBudget > 0 && st.page == nil && st.flags&clockListed == 0 {
		st.flags |= clockListed
		s.clock = append(s.clock, clockEntry{app, st})
	}
}

// unlist removes the CLOCK's entry i, moving its last entry there.
func (s *Store) unlist(i int) {
	last := len(s.clock) - 1
	s.clock[i].st.flags &^= clockListed
	s.clock[i] = s.clock[last]
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
	inline := len(s.apps) - s.pg.liveRefs
	// Two full passes suffice: the first clears reference bits, the
	// second demotes. The hand persists across calls, so steady-state
	// work is proportional to the overshoot, not the fleet.
	for scanned, limit := 0, 2*len(s.clock)+2; inline > budget && scanned < limit && len(s.clock) > 0; scanned++ {
		if s.hand >= len(s.clock) {
			s.hand = 0
		}
		e := s.clock[s.hand]
		switch {
		case e.st.page != nil || s.apps[e.app] != e.st:
			s.unlist(s.hand) // cold, dropped or replaced since it was listed
		case e.st.flags&clockTouched != 0:
			e.st.flags &^= clockTouched
			s.hand++
		default:
			if err := s.pageOutLocked(e.app, e.st); err != nil {
				return
			}
			s.unlist(s.hand)
			inline--
		}
	}
}

// ensureInlineLocked pages a cold app's window back into memory, and
// returns its values, decoded into vals, when mode asks for them and a
// page was read. The record the stub points to is also covered by the
// snapshot+WAL chain until the next compaction, so a read failure here
// — torn page file after a crash mid-page-out, bit rot — costs the
// window only in the rare case that chain was already compacted past
// it; the durable total is kept either way and the app restarts with an
// empty window.
func (s *Store) ensureInlineLocked(app string, st *appState, mode cwMode, vals []float64) []float64 {
	if st.page == nil {
		return nil
	}
	full, vals, err := s.pg.load(app, st.page, mode|cwWindow, vals)
	if err != nil {
		s.pageErrs++ // full and vals are empty: the window is lost
		s.pg.lostSeq = max(s.pg.lostSeq, st.page.seq)
	}
	s.pg.free(st.page)
	st.page = nil
	st.cw = full.cw
	return vals
}

// windowLocked materializes an app's window without changing its tier
// (cold apps are read from disk but stay cold).
func (s *Store) windowLocked(app string, st *appState) []float64 {
	if st.page == nil {
		return st.cw.Values(nil)
	}
	_, win, err := s.pg.load(app, st.page, cwValues, nil)
	if err != nil {
		return nil
	}
	return win
}

// warmState returns st if it is warm, else a warm copy read from its
// page; the app itself stays cold. It is what Split writes.
func (s *Store) warmState(app string, st *appState) (*appState, error) {
	if st.page == nil {
		return st, nil
	}
	full, _, err := s.pg.load(app, st.page, cwWindow, nil)
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
	st := s.apps[app]
	if st == nil {
		return nil
	}
	return s.windowLocked(app, st)
}

// Windows returns a copy of every app's sliding window. Cold apps are
// materialized from disk without being promoted. Prefer RestoreWindow
// per app on serving paths: this walks (and decodes) the entire fleet.
func (s *Store) Windows() map[string][]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]float64, len(s.apps))
	for app, st := range s.apps {
		out[app] = s.windowLocked(app, st)
	}
	return out
}

// RestoreWindow returns one app's window for lazy serving-state
// restore, paging a cold app back in (it becomes warm). paged reports
// whether a disk read happened; ok is false for unknown apps.
func (s *Store) RestoreWindow(app string) (win []float64, paged bool, ok bool) {
	win, _, paged, ok = s.RestoreWindowMemo(app, nil)
	return win, paged, ok
}

// SetMemo attaches m (see Memo; zero clears) to an app, if it is known.
func (s *Store) SetMemo(app string, m Memo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.apps[app]; st != nil {
		st.memoLen, st.memoGen, st.memoGroup = m.Len, m.Gen, m.Group
	}
}

// RestoreWindowMemo is RestoreWindow plus the app's Memo, with the
// window decoded into dst(n): a buffer the caller lends for its n values,
// so a restore leaves no garbage. A nil dst allocates one.
func (s *Store) RestoreWindowMemo(app string, dst func(n int) []float64) (win []float64, m Memo, paged, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.apps[app]
	if st == nil {
		return nil, Memo{}, false, false
	}
	var buf []float64
	if dst != nil {
		buf = dst(st.windowLen())
	}
	paged = st.page != nil
	// A page-in decodes the values in the same walk that rebuilds the
	// window; only a warm app is walked here.
	win = s.ensureInlineLocked(app, st, cwValues, buf)
	if win == nil {
		win = st.cw.Values(buf)
	}
	s.list(app, st, true)
	// Enforce after materializing: the sweep's second-chance pass may
	// legitimately re-demote this very app (tiny budgets), which must not
	// truncate the window we are about to hand to the caller.
	s.enforceInlineBudgetLocked()
	return win, Memo{st.memoLen, st.memoGen, st.memoGroup}, paged, true
}

// Recent is CompactWindow.Recent over app's window, read from its page
// if the app is cold (it stays cold): a hot app's due block. It returns
// nothing for an unknown app or an unreadable page.
func (s *Store) Recent(app string, k, skip int, dst []float64) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var cw CompactWindow
	if st := s.apps[app]; st != nil && st.page != nil {
		cold, _, _ := s.pg.load(app, st.page, cwWindow, nil) // empty on an error
		cw = cold.cw
	} else if st != nil {
		cw = st.cw
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
	st := s.apps[app]
	if st == nil || st.page != nil || !s.Durable() {
		return nil
	}
	return s.pageOutLocked(app, st)
}

// PagedApps reports how many apps are cold (paged to disk).
func (s *Store) PagedApps() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pg.liveRefs
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
	return len(s.apps)
}

// AppNames returns the name of every app with durable state, sorted.
func (s *Store) AppNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.apps))
	for app := range s.apps {
		names = append(names, app)
	}
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
	s.pg.maybeGC(s.apps)
	if s.pg.sync() != nil {
		if err := s.pg.recover(s.apps); err != nil {
			return err
		}
	}
	snapSeq := s.w.seq - 1
	if err := writeSnapshot(s.dev, snapSeq, s.apps); err != nil {
		return err
	}
	// Deletion is cleanup, not correctness: leftovers are re-deleted on
	// the next compaction, and restore ignores segments <= snapshot seq.
	files, _ := s.dev.list()
	s.pg.deleteBelow(s.apps, files)
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
		Apps:         len(s.apps),
		Observations: s.total,
		TornTail:     s.torn,
		Restored:     s.restored,
		PagedApps:    s.pg.liveRefs,
		PageErrors:   s.pageErrs,
		PageOuts:     s.pageOuts,
		PageGCFails:  s.pg.gcFails,
	}
	if s.w != nil {
		st.Fsyncs = s.w.fsyncs.Load()
	}
	for _, a := range s.apps {
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
