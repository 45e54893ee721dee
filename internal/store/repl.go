package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Replication: the segmented CRC32C WAL is already a replication log, so
// a follower keeps a bit-exact copy of the primary's state by streaming
// framed records from the primary's segments (sealed and live) and
// applying them to its own durable store. The protocol is pull-based:
//
//	follower: ReadWALFrom(cursor)  ->  primary returns framed records
//	                                   ending at a record boundary, plus
//	                                   the next cursor position
//	follower: AppendReplicated(frames, next)
//
// AppendReplicated wraps the fetched frames and the new cursor into ONE
// WAL record on the follower (a replication-batch control record), so
// data and cursor commit atomically: a crash either keeps both or
// neither, and resuming from the restored cursor is exactly-once. A
// follower that has fallen behind the primary's oldest retained segment
// (compaction deleted its position) re-bootstraps from ExportState /
// ImportState.
//
// The same control-record envelope once carried the live-resharding
// primitives: an app-import record (replace one app's full state) and an
// app tombstone (drop one app). Nothing writes them any more — a fleet
// is resized offline, by Split — but data directories and follower
// streams from before still hold them, so replay still applies both.

// ReplPos addresses a byte offset in a store's WAL: segment sequence
// number plus offset within that segment. Positions returned by the
// streaming APIs always sit on record boundaries.
type ReplPos struct {
	Seq uint64 `json:"seq"`
	Off int64  `json:"off"`
}

// Less orders positions in WAL byte order.
func (p ReplPos) Less(q ReplPos) bool {
	return p.Seq < q.Seq || (p.Seq == q.Seq && p.Off < q.Off)
}

func (p ReplPos) String() string { return fmt.Sprintf("%d:%d", p.Seq, p.Off) }

// ErrCompacted reports that the requested position precedes the oldest
// retained WAL segment: the follower must re-bootstrap from a state
// snapshot (ExportState / ImportState).
var ErrCompacted = errors.New("store: position compacted away; snapshot bootstrap required")

// ErrOutOfRange reports a position beyond the primary's WAL — the
// follower is ahead of the primary (e.g. the primary's data directory
// was wiped). Replication must stop rather than regress the follower.
var ErrOutOfRange = errors.New("store: position beyond end of WAL")

// ErrNotDurable reports that the store was opened with OpenMemory: its
// WAL keeps no bytes to stream.
var ErrNotDurable = errors.New("store: memory store has no WAL")

// ErrStaleChunk reports a replication chunk whose cursor does not
// advance the follower: a duplicated or reordered fetch. The chunk is
// rejected without touching follower state.
var ErrStaleChunk = errors.New("store: stale or reordered replication chunk")

// ErrMisalignedChunk reports a replication chunk whose length does not
// match the distance between the follower's cursor and the chunk's end
// position: frames were truncated at a record boundary, duplicated, or a
// fetch was skipped. The chunk is rejected without touching state.
var ErrMisalignedChunk = errors.New("store: replication chunk does not abut cursor")

// Control records share the observation WAL but carry replication state.
// The envelope prefix {0xFF, 0x00, ...} can never collide with an
// observation payload: an observation starts with the minimal uvarint of
// its app-name length, and minimal uvarints never encode as 0xFF 0x00
// (that is a non-minimal encoding of 127).
var ctrlPrefix = []byte{0xFF, 0x00, 'f', 'x'}

const (
	ctrlReplBatch = 0x01 // uvarint seq | uvarint off | framed records
	ctrlAppImport = 0x02 // v1 snapshot app record (replace app state); replay only
	ctrlTombstone = 0x03 // uvarint len(app) | app (drop app state); replay only

	// maxCtrlDepth bounds nesting of replication-batch records (a
	// follower replicating a follower wraps batches inside batches).
	maxCtrlDepth = 4
)

// parseCtrl splits a control payload into type and body. ok is false for
// plain observation payloads.
func parseCtrl(p []byte) (typ byte, body []byte, ok bool) {
	if len(p) < len(ctrlPrefix)+1 || !bytes.HasPrefix(p, ctrlPrefix) {
		return 0, nil, false
	}
	return p[len(ctrlPrefix)], p[len(ctrlPrefix)+1:], true
}

func encodeReplBatch(next ReplPos, frames []byte) []byte {
	buf := append([]byte(nil), ctrlPrefix...)
	buf = append(buf, ctrlReplBatch)
	buf = binary.AppendUvarint(buf, next.Seq)
	buf = binary.AppendUvarint(buf, uint64(next.Off))
	return append(buf, frames...)
}

func decodeReplBatch(body []byte) (next ReplPos, frames []byte, err error) {
	seq, n := binary.Uvarint(body)
	if n <= 0 {
		return next, nil, fmt.Errorf("store: repl batch: bad seq")
	}
	body = body[n:]
	off, n := binary.Uvarint(body)
	if n <= 0 {
		return next, nil, fmt.Errorf("store: repl batch: bad offset")
	}
	return ReplPos{Seq: seq, Off: int64(off)}, body[n:], nil
}

func decodeTombstone(body []byte) (string, error) {
	nameLen, n := binary.Uvarint(body)
	if n <= 0 || nameLen != uint64(len(body)-n) {
		return "", fmt.Errorf("store: tombstone record: bad app length")
	}
	return string(body[n:]), nil
}

// drop removes an app's record, if any: its page bytes become garbage.
func (s *Store) drop(app string) {
	old := s.apps[app]
	if old == nil {
		return
	}
	s.total -= old.total
	if old.page != nil {
		s.pg.free(old.page)
	}
	delete(s.apps, app)
}

// applyPayloadLocked folds one WAL payload — observation or control
// record — into the in-memory state. Called with s.mu held, from both
// live appends and boot replay, so disk replay and live application are
// the same code path.
func (s *Store) applyPayloadLocked(p []byte, depth int) error {
	typ, body, isCtrl := parseCtrl(p)
	if !isCtrl {
		obs, err := decodeObservation(p)
		if err != nil {
			return err
		}
		s.apply(obs)
		return nil
	}
	switch typ {
	case ctrlReplBatch:
		if depth >= maxCtrlDepth {
			return fmt.Errorf("store: replication batch nested deeper than %d", maxCtrlDepth)
		}
		next, frames, err := decodeReplBatch(body)
		if err != nil {
			return err
		}
		if _, err := readRecords(bytes.NewReader(frames), func(inner []byte) error {
			return s.applyPayloadLocked(inner, depth+1)
		}); err != nil {
			return err
		}
		s.replCursor, s.hasCursor = next, true
		return nil
	case ctrlAppImport:
		app, st, err := decodeWireApp(body)
		if err != nil {
			return err
		}
		s.drop(app)
		s.apps[app] = st
		s.list(app, st, false)
		s.total += st.total
		return nil
	case ctrlTombstone:
		app, err := decodeTombstone(body)
		if err != nil {
			return err
		}
		s.drop(app)
		return nil
	default:
		return fmt.Errorf("store: unknown control record type %#x", typ)
	}
}

// validatePayload checks that a payload would apply cleanly, without
// touching state — AppendReplicated rejects a chunk as a whole before
// committing any of it.
func validatePayload(p []byte, depth int) error {
	typ, body, isCtrl := parseCtrl(p)
	if !isCtrl {
		_, err := decodeObservation(p)
		return err
	}
	switch typ {
	case ctrlReplBatch:
		if depth >= maxCtrlDepth {
			return fmt.Errorf("store: replication batch nested deeper than %d", maxCtrlDepth)
		}
		_, frames, err := decodeReplBatch(body)
		if err != nil {
			return err
		}
		_, err = readRecords(bytes.NewReader(frames), func(inner []byte) error {
			return validatePayload(inner, depth+1)
		})
		return err
	case ctrlAppImport:
		_, _, err := decodeWireApp(body)
		return err
	case ctrlTombstone:
		_, err := decodeTombstone(body)
		return err
	default:
		return fmt.Errorf("store: unknown control record type %#x", typ)
	}
}

// countObservations counts the observations carried by a payload
// (descending into replication batches).
func countObservations(p []byte, depth int) int {
	typ, body, isCtrl := parseCtrl(p)
	if !isCtrl {
		return 1
	}
	if typ != ctrlReplBatch || depth >= maxCtrlDepth {
		return 0
	}
	_, frames, err := decodeReplBatch(body)
	if err != nil {
		return 0
	}
	n := 0
	readRecords(bytes.NewReader(frames), func(inner []byte) error {
		n += countObservations(inner, depth+1)
		return nil
	})
	return n
}

// Position reports the end of this store's WAL — the position a follower
// fully caught up with this store would hold as its cursor.
func (s *Store) Position() (ReplPos, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return ReplPos{}, fmt.Errorf("store: closed")
	}
	return ReplPos{Seq: s.w.seq, Off: s.w.size}, nil
}

// ReplCursor reports the last primary position this store has durably
// applied (set by AppendReplicated / ImportState, restored by replay).
func (s *Store) ReplCursor() (ReplPos, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replCursor, s.hasCursor
}

// validRecordPrefix returns the length of the longest prefix of data
// consisting of complete, checksum-valid record frames.
func validRecordPrefix(data []byte) int {
	valid := 0
	for {
		rest := data[valid:]
		if len(rest) < recordHeaderLen {
			return valid
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		want := binary.LittleEndian.Uint32(rest[4:8])
		if length == 0 || length > maxRecordLen {
			return valid
		}
		frame := recordHeaderLen + int(length)
		if len(rest) < frame {
			return valid
		}
		if crc32.Checksum(rest[recordHeaderLen:frame], castagnoli) != want {
			return valid
		}
		valid += frame
	}
}

// ReadWALFrom streams framed records starting at pos: it returns up to
// maxBytes of complete frames (always ending at a record boundary) plus
// the position of the byte after the last returned frame. An empty
// result with next == pos means the caller is caught up. Reading is safe
// concurrently with appends: the live segment is only read up to the
// size captured under the store lock, and those bytes are fully written
// before the lock is released.
func (s *Store) ReadWALFrom(pos ReplPos, maxBytes int) (data []byte, next ReplPos, err error) {
	// A single frame can be maxRecordLen long; never return "no progress"
	// just because the caller's budget is smaller than one record.
	if maxBytes < maxRecordLen+recordHeaderLen {
		maxBytes = maxRecordLen + recordHeaderLen
	}
	if !s.Durable() {
		return nil, pos, ErrNotDurable
	}
	for {
		s.mu.Lock()
		if s.w == nil {
			s.mu.Unlock()
			return nil, pos, fmt.Errorf("store: closed")
		}
		curSeq, curSize := s.w.seq, s.w.size
		s.mu.Unlock()

		if pos.Seq > curSeq || (pos.Seq == curSeq && pos.Off > curSize) {
			return nil, pos, ErrOutOfRange
		}
		name := segName(pos.Seq)
		files, err := s.dev.list()
		if err != nil {
			return nil, pos, err
		}
		end, ok := files[name]
		if !ok {
			return nil, pos, ErrCompacted
		}
		if pos.Seq == curSeq {
			end = curSize
		}
		if pos.Off > end {
			return nil, pos, ErrOutOfRange
		}
		if pos.Off == end {
			if pos.Seq < curSeq {
				pos = ReplPos{Seq: pos.Seq + 1}
				continue
			}
			return nil, pos, nil // caught up
		}

		readLen := end - pos.Off
		if int64(maxBytes) < readLen {
			readLen = int64(maxBytes)
		}
		f, err := s.dev.open(name)
		if err != nil {
			return nil, pos, err
		}
		buf := make([]byte, readLen)
		_, rerr := f.ReadAt(buf, pos.Off)
		f.Close()
		if rerr != nil {
			return nil, pos, rerr
		}
		valid := validRecordPrefix(buf)
		if valid == 0 {
			// A torn or corrupt tail. In a sealed segment, skip it the way
			// boot replay does (later segments hold newer records); at the
			// live head it cannot normally happen — report caught up and
			// let the caller retry.
			if pos.Seq < curSeq && pos.Off+readLen == end {
				pos = ReplPos{Seq: pos.Seq + 1}
				continue
			}
			return nil, pos, nil
		}
		return buf[:valid], ReplPos{Seq: pos.Seq, Off: pos.Off + int64(valid)}, nil
	}
}

// AppendReplicated applies one replication chunk fetched from a primary:
// frames (complete record frames, as returned by ReadWALFrom) plus the
// cursor position after them. Data and cursor are committed as a single
// WAL record on this store, so a crash keeps both or neither —
// re-fetching from the restored cursor is exactly-once. The whole chunk
// is validated first; any malformed frame rejects the chunk without
// touching state. Returns the number of observations applied.
func (s *Store) AppendReplicated(frames []byte, next ReplPos) (int, error) {
	if _, err := readRecords(bytes.NewReader(frames), func(p []byte) error {
		return validatePayload(p, 1)
	}); err != nil {
		return 0, fmt.Errorf("store: invalid replication chunk: %w", err)
	}
	// A chunk may be too large to wrap in one record. Split it into
	// batch records that each fit, giving every group the exact WAL
	// position of its last frame: all frames of one chunk come from
	// segment next.Seq and end at next.Off (ReadWALFrom never crosses a
	// segment boundary within one response), so the position after byte
	// b of the chunk is next.Off - (len(frames) - b). Groups are written
	// in a single group-committed append, so a crash keeps a prefix of
	// whole groups — cursor and data stay consistent.
	const wrapMax = maxRecordLen - 64
	type group struct {
		payload []byte
		next    ReplPos
	}
	var groups []group
	start := 0
	for start < len(frames) {
		end := start
		for end < len(frames) {
			length := binary.LittleEndian.Uint32(frames[end : end+4])
			frame := recordHeaderLen + int(length)
			if frame > wrapMax {
				return 0, fmt.Errorf("store: replicated record of %d bytes cannot be wrapped", frame)
			}
			if end+frame-start > wrapMax && end > start {
				break
			}
			end += frame
		}
		groups = append(groups, group{
			payload: encodeReplBatch(ReplPos{Seq: next.Seq, Off: next.Off - int64(len(frames)-end)}, frames[start:end]),
			next:    ReplPos{Seq: next.Seq, Off: next.Off - int64(len(frames)-end)},
		})
		start = end
	}
	if len(groups) == 0 {
		groups = append(groups, group{payload: encodeReplBatch(next, nil), next: next})
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return 0, err
	}
	if s.hasCursor && !s.replCursor.Less(next) {
		if next == s.replCursor && len(frames) == 0 {
			return 0, nil // idempotent no-op heartbeat
		}
		return 0, fmt.Errorf("%w: cursor %s, chunk ends at %s", ErrStaleChunk, s.replCursor, next)
	}
	// The chunk must abut the cursor exactly: it covers bytes
	// [next.Off-len, next.Off) of segment next.Seq, and a chunk that
	// crosses into a new segment always starts at offset 0 (ReadWALFrom
	// never splits a response across segments). This catches frames that
	// were truncated at a record boundary, re-sent, or delivered with a
	// gap — corruption a checksum cannot see.
	chunkStart := next.Off - int64(len(frames))
	if chunkStart < 0 {
		return 0, fmt.Errorf("%w: %d frame bytes end at %s", ErrMisalignedChunk, len(frames), next)
	}
	if s.hasCursor {
		if next.Seq == s.replCursor.Seq && chunkStart != s.replCursor.Off {
			return 0, fmt.Errorf("%w: cursor %s, chunk covers %d:%d..%s",
				ErrMisalignedChunk, s.replCursor, next.Seq, chunkStart, next)
		}
		if next.Seq > s.replCursor.Seq && chunkStart != 0 {
			return 0, fmt.Errorf("%w: cursor %s, chunk covers %d:%d..%s",
				ErrMisalignedChunk, s.replCursor, next.Seq, chunkStart, next)
		}
	}
	payloads := make([][]byte, len(groups))
	for i, g := range groups {
		payloads[i] = g.payload
	}
	if err := s.w.appendBatch(payloads, s.opt.Sync == SyncAlways); err != nil {
		return 0, err
	}
	applied := 0
	for _, g := range groups {
		if err := s.applyPayloadLocked(g.payload, 0); err != nil {
			// Cannot happen: the chunk was validated above. Surface loudly
			// if validation and application ever diverge.
			return applied, fmt.Errorf("store: replication apply after validation: %w", err)
		}
		applied += countObservations(g.payload, 0)
	}
	s.appended += applied
	if s.opt.CompactEvery > 0 && s.appended >= s.opt.CompactEvery {
		s.compactLocked()
	}
	return applied, nil
}

// ExportState serializes the store's full state together with the WAL
// position it reflects — the bootstrap a follower needs before it can tail
// the WAL. The body is a v3 snapshot stream with every app inline (see
// snapshot.go); a page that cannot be read fails it, as it fails Split.
func (s *Store) ExportState() (data []byte, pos ReplPos, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return nil, pos, fmt.Errorf("store: closed")
	}
	data = appendRecord(nil, []byte(snapMagicV3))
	for app, st := range s.apps {
		if st, err = s.warmState(app, st); err != nil {
			return nil, pos, err
		}
		data = appendSnapshotRecord(data, app, st)
	}
	return data, ReplPos{Seq: s.w.seq, Off: s.w.size}, nil
}

// ImportState replaces this store's entire state with an ExportState
// body and records pos as the replication cursor, durably: the state is
// written as a snapshot, the cursor as a WAL record on top. A crash
// between the two leaves the cursor unset, which a follower resolves by
// re-bootstrapping — never by double-applying. The body is read as Open
// reads a snapshot, so an older primary's v1 body imports too; one that
// does not decode, names a newer format or holds a page stub is refused
// and the store is left as it was.
func (s *Store) ImportState(data []byte, pos ReplPos) error {
	apps, err := readSnapshot(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("store: import: %w", err)
	}
	for app, st := range apps {
		if st.page != nil {
			return fmt.Errorf("store: import: %q is a page stub", app)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return err
	}
	// The imported fleet replaces everything, including any cold apps'
	// stubs; their page bytes become garbage for the next compaction.
	for _, st := range s.apps {
		if st.page != nil {
			s.pg.free(st.page)
		}
	}
	s.apps = apps
	s.clock, s.hand, s.total = nil, 0, 0
	for app, st := range s.apps {
		s.total += st.total
		s.list(app, st, false)
	}
	// Persist the imported state as a snapshot (compaction also clears
	// superseded local history — the follower's log restarts here).
	if err := s.compactLocked(); err != nil {
		return err
	}
	// Commit the cursor on top of the snapshot.
	if err := s.w.appendBatch([][]byte{encodeReplBatch(pos, nil)}, s.opt.Sync == SyncAlways); err != nil {
		return err
	}
	s.replCursor, s.hasCursor = pos, true
	return nil
}
