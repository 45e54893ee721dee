package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
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
// before writing a snapshot that references its records — and a crash
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
	dir       string
	seq       uint64   // current write file (opened lazily)
	f         *os.File // nil until the first pageOut after open/GC
	size      int64
	dirty     bool  // written since last fsync
	liveRefs  int   // live stubs (cold apps)
	liveBytes int64 // bytes referenced by live stubs
	deadBytes int64 // bytes in page files no stub references
	fsyncs    int64
	gcFails   int64 // page-file rewrites abandoned (see maybeGC)

	// rd holds a read handle per page file a page-in has touched, open
	// until the file is deleted or the pager closes.
	rd map[uint64]*os.File

	buf []byte // the record being written out, reused
}

// openPager scans dir for existing page files and positions the writer
// on a fresh sequence number. Live/dead accounting is rebuilt by the
// caller once stubs are known (see recountLocked).
func openPager(dir string) (*pager, error) {
	seqs, err := listSeqs(dir, pagePrefix, pageSuffix)
	if err != nil {
		return nil, err
	}
	p := &pager{dir: dir, seq: 1, rd: map[uint64]*os.File{}}
	for _, seq := range seqs {
		if seq >= p.seq {
			p.seq = seq + 1
		}
		if fi, err := os.Stat(filepath.Join(dir, pageName(seq))); err == nil {
			p.deadBytes += fi.Size() // reclassified as live per stub below
		}
	}
	return p, nil
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
		f, err := os.OpenFile(filepath.Join(p.dir, pageName(p.seq)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		if err != nil {
			return nil, err
		}
		p.f, p.size = f, 0
	}
	p.buf = appendPageRecord(p.buf[:0], app, st)
	if _, err := p.f.Write(p.buf); err != nil {
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
func (p *pager) reader(seq uint64) (*os.File, error) {
	if f := p.rd[seq]; f != nil {
		return f, nil
	}
	f, err := os.Open(filepath.Join(p.dir, pageName(seq)))
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
// the buffer it was read into, as mode says (see cwMode); a window it
// returns owns that buffer. The stub must span exactly one frame; the
// frame CRC plus the embedded app name guard against stale or
// misdirected refs. An error returns nothing decoded.
func (p *pager) load(app string, ref *pageRef, mode cwMode) (st appState, vals []float64, err error) {
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
	if int(binary.LittleEndian.Uint32(buf)) != len(payload) || validRecordPrefix(buf) != len(buf) {
		return appState{}, nil, fmt.Errorf("store: page %d@%d: stub does not span one valid record: %w", ref.seq, ref.off, errTorn)
	}
	name, body, total, err := decodeAppHeader(payload, "page")
	if err != nil {
		return appState{}, nil, err
	}
	if name != app {
		return appState{}, nil, fmt.Errorf("store: page %d@%d: holds %q, want %q", ref.seq, ref.off, name, app)
	}
	cw, vals, err := decodeCompactWindow(body, mode)
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
// before any snapshot that may reference its records.
func (p *pager) sync() error {
	if !p.dirty || p.f == nil {
		return nil
	}
	if err := p.f.Sync(); err != nil {
		return err
	}
	p.fsyncs++
	p.dirty = false
	return nil
}

// gcThreshold: rewrite live records once dead bytes exceed 1 MiB and
// outweigh live ones. Below that, the space is cheaper than the copy.
const pageGCMinDead = 1 << 20

// maybeGC rewrites every live stub's record into a fresh page file and
// rebinds the stubs, so compaction can delete the old files after the
// next snapshot commits the new refs. On any error the old refs are
// still intact and the rewrite is abandoned (counted in gcFails, and
// retried next compaction): the copies it already wrote are freed, so
// liveRefs still counts exactly the cold apps.
func (p *pager) maybeGC(apps map[string]*appState) (err error) {
	if p.deadBytes < pageGCMinDead || p.deadBytes <= p.liveBytes {
		return nil
	}
	if p.f != nil {
		p.f.Close()
		p.f = nil
	}
	p.seq++
	type rebind struct {
		st  *appState
		ref *pageRef
	}
	var rebinds []rebind
	defer func() {
		if err != nil {
			p.gcFails++
			for _, r := range rebinds {
				p.free(r.ref)
			}
		}
	}()
	for app, st := range apps {
		if st.page == nil {
			continue
		}
		full, _, err := p.load(app, st.page, cwWindow)
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

// deleteBelow removes page files whose sequence number is below the
// lowest live reference (cleanup, not correctness — leftovers are
// re-deleted on the next compaction). Returns bytes reclaimed.
func (p *pager) deleteBelow(apps map[string]*appState) {
	minLive := p.seq
	for _, st := range apps {
		if st.page != nil && st.page.seq < minLive {
			minLive = st.page.seq
		}
	}
	seqs, err := listSeqs(p.dir, pagePrefix, pageSuffix)
	if err != nil {
		return
	}
	for _, seq := range seqs {
		if seq >= minLive {
			continue
		}
		if f := p.rd[seq]; f != nil {
			f.Close()
			delete(p.rd, seq)
		}
		path := filepath.Join(p.dir, pageName(seq))
		if fi, err := os.Stat(path); err == nil {
			if os.Remove(path) == nil {
				p.deadBytes -= fi.Size()
			}
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
	if p.f == nil {
		return nil
	}
	err := p.f.Sync()
	if cerr := p.f.Close(); err == nil {
		err = cerr
	}
	p.f = nil
	return err
}
