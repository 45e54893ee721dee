package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Cold apps page their compacted window out of memory into
// page-<seq>.page files, leaving only a pageRef stub (a few dozen
// bytes) in the app map. Page files reuse the WAL's CRC-framed record
// format; each record is one app's self-contained state:
//
//	uvarint len(app) | app | uvarint total | compact window encoding
//
// Paging is a local memory/disk trade, not a durability mechanism: the
// data a page record holds is always also recoverable from the current
// snapshot + WAL chain until a *newer* snapshot embeds the stub. The
// pager therefore fsyncs lazily — compaction syncs any dirty page file
// before writing a snapshot that references its records, and a file is
// synced when it is sealed, since no later sync reaches it — and a crash
// before that snapshot simply restores the app warm from the old chain.
//
// Like WAL segments, a recovered process never appends to an existing
// page file (its tail may be torn); it opens a fresh sequence number.
// Dead bytes accumulate as apps are restored or dropped; compaction
// rewrites live records into the current file once garbage dominates,
// then deletes page files no live stub references.
const (
	pagePrefix = "page-"
	pageSuffix = ".page"
)

func pageName(seq uint64) string {
	return fmt.Sprintf("%s%08d%s", pagePrefix, seq, pageSuffix)
}

// pageRef locates one app's paged state: record framing starts at off
// in page file seq and spans recLen bytes. count caches the window
// length so stats need no disk read.
type pageRef struct {
	seq    uint64
	off    int64
	recLen int64
	count  int
}

// pager owns the page files of one store directory. All methods are
// called with the store mutex held.
type pager struct {
	dev       device
	seq       uint64 // current write file (opened lazily)
	f         file   // nil until the first pageOut after open/seal
	size      int64
	dirty     bool   // written since last fsync
	err       error  // a failed fsync, kept (see sync)
	errSeq    uint64 // the page file err failed
	lostSeq   uint64 // the newest page file a page-in lost a record of
	liveRefs  int    // live stubs (cold apps)
	liveBytes int64  // bytes referenced by live stubs
	deadBytes int64  // bytes in page files no stub references
	gcFails   int64  // page-file rewrites abandoned (see maybeGC)

	// rd holds a read handle per page file a page-in has touched, open
	// until the file is deleted or the pager closes.
	rd map[uint64]file

	buf []byte // the record being written out, reused
}

// openPager positions the writer after the device's page files on a
// fresh sequence number. Their bytes count as dead until the caller notes
// each live stub (see noteLive).
func openPager(dev device, files map[string]int64) *pager {
	p := &pager{dev: dev, seq: 1, rd: map[uint64]file{}}
	for name, size := range files {
		if seq, ok := parseSeq(name, pagePrefix, pageSuffix); ok {
			p.seq = max(p.seq, seq+1)
			p.deadBytes += size
		}
	}
	return p
}

// noteLive moves one stub's bytes from the dead to the live column
// (boot-time accounting).
func (p *pager) noteLive(ref *pageRef) {
	p.liveRefs++
	p.liveBytes += ref.recLen
	p.deadBytes -= ref.recLen
}

// appendPageRecord frames one app's state for paging onto buf, the
// payload encoded in place behind its header.
func appendPageRecord(buf []byte, app string, st *appState) []byte {
	start := len(buf)
	return sealRecord(encodeWireAppCompact(reserveHeader(buf), app, st), start)
}

// writeOut appends one framed record to the current page file and
// returns its stub.
func (p *pager) writeOut(app string, st *appState) (*pageRef, error) {
	if p.f == nil {
		f, err := p.dev.create(pageName(p.seq))
		if err != nil {
			return nil, err
		}
		p.f, p.size = f, 0
	}
	p.buf = appendPageRecord(p.buf[:0], app, st)
	if n, err := p.f.Write(p.buf); err != nil {
		// The next record would land behind the torn one, at an offset
		// its stub does not name: the torn bytes are dead, and the next
		// page-out opens a fresh file. A failed sync is kept in p.err.
		p.deadBytes += int64(n)
		p.seal()
		return nil, err
	}
	recLen := int64(len(p.buf))
	ref := &pageRef{seq: p.seq, off: p.size, recLen: recLen, count: st.cw.Len()}
	p.size += recLen
	p.liveRefs++
	p.liveBytes += recLen
	p.dirty = true
	return ref, nil
}

// reader returns the read handle of page file seq, opening it on first use.
func (p *pager) reader(seq uint64) (file, error) {
	if f := p.rd[seq]; f != nil {
		return f, nil
	}
	f, err := p.dev.open(pageName(seq))
	if err != nil {
		return nil, err
	}
	p.rd[seq] = f
	return f, nil
}

// pageReadSpare is the capacity a page read leaves behind the record: the
// window decoded with cwWindow owns that buffer, and the observation that
// paged it in appends there (a chunk head or a raw value is 8 bytes, a
// delta up to 10) instead of copying the stream to grow it.
const pageReadSpare = 32

// load reads the record a stub points to, verifies it and decodes it in
// the buffer it was read into, as mode says (see cwMode), its values
// into vals; a window it returns owns that buffer. The stub must span
// exactly one frame; the frame CRC plus the embedded app name guard
// against stale or misdirected refs. An error returns nothing decoded.
func (p *pager) load(app string, ref *pageRef, mode cwMode, vals []float64) (appState, []float64, error) {
	f, err := p.reader(ref.seq)
	if err != nil {
		return appState{}, nil, err
	}
	if ref.recLen <= recordHeaderLen || ref.recLen > maxRecordLen+recordHeaderLen {
		return appState{}, nil, fmt.Errorf("store: page %d@%d: record length %d out of range", ref.seq, ref.off, ref.recLen)
	}
	buf := make([]byte, ref.recLen, ref.recLen+pageReadSpare)
	if _, err := f.ReadAt(buf, ref.off); err != nil {
		return appState{}, nil, fmt.Errorf("store: page %d@%d: %w", ref.seq, ref.off, err)
	}
	// One intact frame, and nothing else, in the span the stub names.
	payload := buf[recordHeaderLen:]
	if int(binary.LittleEndian.Uint32(buf)) != len(payload) ||
		crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[4:]) {
		return appState{}, nil, fmt.Errorf("store: page %d@%d: stub does not span one valid record: %w", ref.seq, ref.off, errTorn)
	}
	name, body, total, err := decodeAppHeader(payload, "page")
	if err != nil {
		return appState{}, nil, err
	}
	if name != app {
		return appState{}, nil, fmt.Errorf("store: page %d@%d: holds %q, want %q", ref.seq, ref.off, name, app)
	}
	cw, vals, err := decodeCompactWindow(body, mode, vals)
	if err != nil {
		return appState{}, nil, err
	}
	return appState{cw: cw, total: int64(total)}, vals, nil
}

// free retires a stub's bytes (app restored, replaced, or dropped).
func (p *pager) free(ref *pageRef) {
	p.liveRefs--
	p.liveBytes -= ref.recLen
	p.deadBytes += ref.recLen
}

// sync fsyncs the current page file if it has unflushed writes. Called
// before any snapshot that may reference its records. A failed fsync is
// kept and returned by every later call until recover clears it: the
// kernel may have dropped the pages, so no snapshot may name a record
// written before it.
func (p *pager) sync() error {
	if p.err != nil || !p.dirty || p.f == nil {
		return p.err
	}
	if p.err = p.f.Sync(); p.err == nil {
		p.dirty = false
	} else {
		p.errSeq = p.seq
	}
	return p.err
}

// recover clears a failed fsync, so that compaction goes on. Every page
// file from the failed one on went unsynced — sync does nothing while
// err is kept — so the current file is sealed, the live records of all
// of them are rewritten into a fresh file, each verified again by load,
// and that file is fsynced. If a page-in has lost a record of one of
// them, or the rewrite fails, the error is kept: only the WAL chain
// still holds that window, and no snapshot may supersede it.
func (p *pager) recover(apps map[string]*appState) error {
	failed := p.errSeq
	p.seal()
	if p.lostSeq >= failed || p.rewrite(apps, func(ref *pageRef) bool { return ref.seq >= failed }) != nil {
		return p.err
	}
	p.err = nil
	return p.sync()
}

// seal ends the current page file, fsynced first since live stubs may
// name its records; the next page-out opens a fresh one.
func (p *pager) seal() error {
	err := p.sync()
	if p.f != nil {
		p.f.Close()
		p.f = nil
	}
	p.seq++
	return err
}

// gcThreshold: rewrite live records once dead bytes exceed 1 MiB and
// outweigh live ones. Below that, the space is cheaper than the copy.
const pageGCMinDead = 1 << 20

// maybeGC rewrites every live stub's record into a fresh page file, so
// compaction can delete the old files after the next snapshot commits
// the new refs. A failed rewrite is counted in gcFails and retried next
// compaction.
func (p *pager) maybeGC(apps map[string]*appState) error {
	if p.deadBytes < pageGCMinDead || p.deadBytes <= p.liveBytes {
		return nil
	}
	if err := p.seal(); err != nil {
		return err
	}
	err := p.rewrite(apps, func(*pageRef) bool { return true })
	if err != nil {
		p.gcFails++
	}
	return err
}

// rewrite copies the live records whose stubs pick selects into the
// current page file, each read back and verified by load, and rebinds
// the stubs. On any error the old stubs are still intact and the copies
// already written are freed, so liveRefs still counts exactly the cold
// apps.
func (p *pager) rewrite(apps map[string]*appState, pick func(*pageRef) bool) (err error) {
	type rebind struct {
		st  *appState
		ref *pageRef
	}
	var rebinds []rebind
	defer func() {
		if err != nil {
			for _, r := range rebinds {
				p.free(r.ref)
			}
		}
	}()
	for app, st := range apps {
		if st.page == nil || !pick(st.page) {
			continue
		}
		full, _, err := p.load(app, st.page, cwWindow, nil)
		if err != nil {
			return err
		}
		ref, err := p.writeOut(app, &full)
		if err != nil {
			return err
		}
		// Double-count live bytes until the swap below settles them.
		rebinds = append(rebinds, rebind{st, ref})
	}
	for _, r := range rebinds {
		p.free(r.st.page)
		r.st.page = r.ref
	}
	return nil
}

// deleteBelow removes the page files among files whose sequence number
// is below the lowest live reference (cleanup, not correctness —
// leftovers are re-deleted on the next compaction).
func (p *pager) deleteBelow(apps map[string]*appState, files map[string]int64) {
	minLive := p.seq
	for _, st := range apps {
		if st.page != nil && st.page.seq < minLive {
			minLive = st.page.seq
		}
	}
	for name, size := range files {
		seq, ok := parseSeq(name, pagePrefix, pageSuffix)
		if !ok || seq >= minLive {
			continue
		}
		if r := p.rd[seq]; r != nil {
			r.Close()
			delete(p.rd, seq)
		}
		if p.dev.remove(name) == nil {
			p.deadBytes -= size
		}
	}
	if p.deadBytes < 0 {
		p.deadBytes = 0
	}
}

func (p *pager) close() error {
	for seq, f := range p.rd {
		f.Close()
		delete(p.rd, seq)
	}
	return p.seal()
}
