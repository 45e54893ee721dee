// Package store persists per-application observation history across
// femuxd restarts, turning a reload-from-disk into a genuine
// zero-state-loss upgrade. "Serverless in the Wild" (Shahrad et al.)
// shows that the cold-start cost of losing history falls hardest on the
// infrequently-invoked majority of apps — exactly the apps whose sliding
// windows take longest to rebuild — so the serving path writes every
// observation through an append-only segmented WAL (length-prefixed,
// CRC32C-framed records with a configurable fsync policy) and compacts it
// periodically into snapshots. Batch ingestion group-commits N
// observations under a single fsync, keeping the observe path cheap
// ("The High Cost of Keeping Warm") while staying durable.
//
// The package also exports ShardOf, the FNV-1a partition function that a
// multi-instance femuxd fleet and its clients share to agree on which
// instance owns which application.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// WAL record framing, little-endian:
//
//	uint32  payload length (1 .. maxRecordLen)
//	uint32  CRC32C (Castagnoli) of the payload
//	bytes   payload
//
// A record is valid only if the full frame is present and the checksum
// matches. Replay accepts the longest valid prefix of each segment; the
// first torn or corrupt frame ends the segment (a crash mid-write leaves
// exactly such a tail). Zero-length records are never written and are
// rejected on read, so a run of zero bytes cannot masquerade as data.
const (
	recordHeaderLen = 8
	// maxRecordLen bounds a single record so that a corrupted length
	// field cannot make replay allocate or read unbounded memory.
	maxRecordLen = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errTorn marks a truncated or corrupt WAL tail. Replay treats it as the
// end of the valid prefix rather than a fatal error.
var errTorn = errors.New("store: torn or corrupt WAL tail")

// IsTorn reports whether err marks a torn/corrupt tail detected during
// replay (as opposed to an I/O failure).
func IsTorn(err error) bool { return errors.Is(err, errTorn) }

// appendRecord frames payload into buf and returns the extended buffer.
func appendRecord(buf, payload []byte) []byte {
	start := len(buf)
	return sealRecord(append(reserveHeader(buf), payload...), start)
}

// reserveHeader and sealRecord frame a record whose payload is encoded
// straight into its place: reserve a header at len(buf), append the
// payload, then seal with that offset to fill the header in.
func reserveHeader(buf []byte) []byte {
	var hdr [recordHeaderLen]byte
	return append(buf, hdr[:]...)
}

func sealRecord(buf []byte, start int) []byte {
	payload := buf[start+recordHeaderLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// readRecords streams every valid record from r into fn, stopping at the
// first invalid frame. With keep, each payload is its own allocation,
// which fn may keep (a window decoded from a snapshot record aliases it);
// without, every payload is read into one buffer, and fn must not keep it.
// It returns the number of valid records and nil on a clean EOF, or an
// error wrapping errTorn when the segment ends in a truncated or corrupt
// frame. fn errors abort the scan unchanged.
func readRecords(r io.Reader, keep bool, fn func(payload []byte) error) (int, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var buf []byte
	n := 0
	for {
		hdr, err := br.Peek(recordHeaderLen)
		if len(hdr) < recordHeaderLen {
			if err == io.EOF && len(hdr) == 0 {
				return n, nil // clean end of segment
			}
			if err == io.EOF {
				return n, fmt.Errorf("truncated record header: %w", errTorn)
			}
			return n, err
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		br.Discard(recordHeaderLen)
		if length == 0 || length > maxRecordLen {
			return n, fmt.Errorf("record length %d out of range: %w", length, errTorn)
		}
		if keep || cap(buf) < int(length) {
			buf = make([]byte, length)
		}
		payload := buf[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return n, fmt.Errorf("truncated record payload: %w", errTorn)
			}
			return n, err
		}
		if got := crc32.Checksum(payload, castagnoli); got != want {
			return n, fmt.Errorf("record checksum %08x != %08x: %w", got, want, errTorn)
		}
		if err := fn(payload); err != nil {
			return n, err
		}
		n++
	}
}

// Segment and snapshot file naming: wal-<seq>.log holds records appended
// while seq was current; snap-<seq>.snap covers every segment with
// sequence number <= seq. On open, the highest loadable snapshot is
// applied and only younger segments are replayed.
const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

func segName(seq uint64) string  { return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix) }
func snapName(seq uint64) string { return fmt.Sprintf("%s%08d%s", snapPrefix, seq, snapSuffix) }

// parseSeq extracts the sequence number from a segment or snapshot name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	var seq uint64
	if _, err := fmt.Sscanf(mid, "%d", &seq); err != nil || mid == "" {
		return 0, false
	}
	return seq, true
}

// seqsOf returns the sorted sequence numbers of the files with the given
// prefix/suffix.
func seqsOf(files map[string]int64, prefix, suffix string) []uint64 {
	var seqs []uint64
	for name := range files {
		if seq, ok := parseSeq(name, prefix, suffix); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// wal is the open write head of the log: the current segment file plus
// rotation and fsync bookkeeping. All methods are called with the owning
// Store's mutex held.
//
// The WAL fails stop: the first write, fsync or rotate error is kept in
// err and returned, without writing anything, by every later commit and
// sync. A short write leaves a torn frame that replay truncates, so one
// more append after it would be lost on reopen even though it was acked;
// and after a failed fsync the kernel may have dropped the dirty pages,
// so a later fsync that succeeds proves nothing. A rotate that fails
// after a commit's own write (and fsync, if asked) does not fail that
// commit, whose records replay on reopen; it fails the next call.
type wal struct {
	dev      device
	seq      uint64 // sequence of the open segment
	f        file
	size     int64
	segBytes int64
	fsyncs   atomic.Int64
	dirty    bool // bytes written since the last fsync
	buf      []byte
	err      error
}

// fail records err as the WAL's fail-stop error, unless one is already
// kept, and returns it.
func (w *wal) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return err
}

// openWAL starts a fresh segment with the given sequence number. A new
// segment per process lifetime means appends never touch a file that may
// end in a torn tail from a previous crash.
func openWAL(dev device, seq uint64, segBytes int64) (*wal, error) {
	w := &wal{dev: dev, seq: seq, segBytes: segBytes}
	if err := w.openSegment(seq); err != nil {
		return nil, err
	}
	return w, nil
}

// openSegment creates segment seq and syncs the directory, so that a
// crash cannot take the segment, and the records it acks, away.
func (w *wal) openSegment(seq uint64) error {
	f, err := w.dev.create(segName(seq))
	if err == nil {
		if err = w.dev.syncDir(); err != nil {
			f.Close()
		}
	}
	if err != nil {
		return w.fail(fmt.Errorf("store: opening segment: %w", err))
	}
	w.f, w.seq, w.size = f, seq, 0
	return nil
}

// appendBatch frames every payload into one buffer and writes it with a
// single write syscall — the group-commit that makes a batched observe
// POST cost one fsync regardless of batch size.
func (w *wal) appendBatch(payloads [][]byte, syncNow bool) error {
	w.buf = w.buf[:0]
	for _, p := range payloads {
		w.buf = appendRecord(w.buf, p)
	}
	return w.commit(syncNow)
}

// appendObservations is appendBatch for the observe path: each record is
// encoded where it is framed, so an observation costs no allocation.
func (w *wal) appendObservations(obs []Observation, syncNow bool) error {
	w.buf = w.buf[:0]
	for _, o := range obs {
		start := len(w.buf)
		w.buf = sealRecord(encodeObservation(reserveHeader(w.buf), o), start)
	}
	return w.commit(syncNow)
}

// commit writes the framed records in w.buf to the segment.
func (w *wal) commit(syncNow bool) error {
	if w.err != nil {
		return w.err
	}
	if _, err := w.f.Write(w.buf); err != nil {
		return w.fail(fmt.Errorf("store: WAL append: %w", err))
	}
	w.size += int64(len(w.buf))
	w.dirty = true
	if syncNow {
		if err := w.sync(); err != nil {
			return err
		}
	}
	if w.size >= w.segBytes {
		w.rotate() // an error is kept in w.err for the next call
	}
	return nil
}

// sync flushes the current segment to stable storage.
func (w *wal) sync() error {
	if w.err != nil || !w.dirty {
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(fmt.Errorf("store: WAL fsync: %w", err))
	}
	if w.dev.durable() { // a memory store's Sync reaches no disk
		w.fsyncs.Add(1)
	}
	w.dirty = false
	return nil
}

// rotate seals the current segment and opens the next one.
func (w *wal) rotate() error {
	if err := w.sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return w.fail(fmt.Errorf("store: closing segment: %w", err))
	}
	return w.openSegment(w.seq + 1)
}

func (w *wal) close() error {
	if err := w.sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// replaySegments feeds every valid record of each listed segment (in
// order) to fn, which must not keep the payload, keeping the longest valid record prefix of each segment
// and never panicking on arbitrary bytes. A torn tail is the expected
// shape of a crash mid-write; because every process appends only to a
// segment it created itself, records in later segments are always newer
// than a torn point in an earlier one, so replay repairs the damaged
// segment (truncating it to its valid prefix) and continues. fn errors
// other than errTorn abort the scan.
func replaySegments(dev device, seqs []uint64, fn func(payload []byte) error) (records int, torn bool, err error) {
	for _, seq := range seqs {
		f, err := dev.open(segName(seq))
		if err != nil {
			return records, torn, err
		}
		validBytes := int64(0)
		n, rerr := readRecords(io.NewSectionReader(f, 0, math.MaxInt64), false, func(payload []byte) error {
			if err := fn(payload); err != nil {
				return err
			}
			validBytes += int64(recordHeaderLen + len(payload))
			return nil
		})
		f.Close()
		records += n
		if rerr != nil {
			if !IsTorn(rerr) {
				return records, torn, fmt.Errorf("store: %s: %w", segName(seq), rerr)
			}
			torn = true
			// Repair: drop the torn tail so future opens see a clean
			// segment. Failure is tolerable — the same truncation will
			// simply be re-derived on the next open.
			dev.truncate(segName(seq), validBytes)
		}
	}
	return records, torn, nil
}
