package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// A WAL record is an observation or a control record. Nothing writes
// control records any more, but data directories from before still hold
// them, so replay applies all three kinds:
//
//   - a replication batch: a follower of a primary's WAL (deleted: a
//     crashed femuxd is restarted on its data directory) wrapped each
//     chunk of the primary's records, and its cursor, into one record;
//   - an app import: the full state of one app, which replaces it (live
//     resharding, deleted: a fleet is resized offline, by Split);
//   - an app tombstone, which drops one app (live resharding too).
//
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

// decodeReplBatch returns a replication batch's framed records, past the
// cursor it carried (a primary's WAL segment and offset), which nothing
// reads any more.
func decodeReplBatch(body []byte) (frames []byte, err error) {
	for _, what := range []string{"seq", "offset"} {
		_, n := binary.Uvarint(body)
		if n <= 0 {
			return nil, fmt.Errorf("store: repl batch: bad %s", what)
		}
		body = body[n:]
	}
	return body, nil
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
	if st := s.warm[app]; st != nil {
		s.total -= st.total
		s.removeWarm(app, st)
	} else if c := s.cold[app]; c != nil {
		s.total -= c.total
		s.pg.free(&c.ref)
		delete(s.cold, app)
	}
}

// applyPayloadLocked folds one replayed WAL payload — observation or
// control record — into the in-memory state. It keeps no byte of p.
// Called with s.mu held.
func (s *Store) applyPayloadLocked(p []byte, depth int) error {
	typ, body, isCtrl := parseCtrl(p)
	if !isCtrl {
		app, v, err := decodeObservation(p)
		if err != nil {
			return err
		}
		// The name is copied only for an app that is not warm.
		st := s.warm[string(app)]
		if st == nil {
			st = s.admit(string(app))
		}
		s.appendTo(st, v)
		return nil
	}
	switch typ {
	case ctrlReplBatch:
		if depth >= maxCtrlDepth {
			return fmt.Errorf("store: replication batch nested deeper than %d", maxCtrlDepth)
		}
		frames, err := decodeReplBatch(body)
		if err != nil {
			return err
		}
		_, err = readRecords(bytes.NewReader(frames), false, func(inner []byte) error {
			return s.applyPayloadLocked(inner, depth+1)
		})
		return err
	case ctrlAppImport:
		app, st, err := decodeWireApp(body)
		if err != nil {
			return err
		}
		s.drop(app)
		s.addWarm(app, st)
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
