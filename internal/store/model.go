package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
)

// The serving model's bytes live in one file of the data directory,
// model.rec, so that a restart serves the model that was served. The
// store does not read them. The file is written as a snapshot is
// (writeFiles): record 0 is the magic "femux-model-v1", each later record
// the next at most maxRecordLen bytes of the model. A model file that
// does not read back fails Open: serving another model in its place
// would undo what was served.
const (
	modelName  = "model.rec"
	modelMagic = "femux-model-v1"
)

// modelChunk is one record of the model file.
type modelChunk []byte

func (c modelChunk) appendSnapshot(buf []byte, _ string) []byte { return append(buf, c...) }

// Model returns the serving model's bytes the store holds: those of the
// last SaveModel, or of the model file Open found; nil if neither. The
// caller must not modify them.
func (s *Store) Model() []byte {
	s.modelMu.Lock()
	defer s.modelMu.Unlock()
	return s.model
}

// SaveModel durably replaces the stored model with b. On an error the
// store holds the model it held before: its bytes are written again, as
// the failed write may have removed them. A memory store runs the same
// code on a device that keeps no file.
func (s *Store) SaveModel(b []byte) error {
	if len(b) == 0 {
		return errors.New("store: saving the model: no bytes")
	}
	s.modelMu.Lock()
	defer s.modelMu.Unlock()
	if err := writeModel(s.dev, b); err != nil {
		if s.model != nil {
			writeModel(s.dev, s.model)
		}
		return fmt.Errorf("store: saving the model: %w", err)
	}
	s.model = bytes.Clone(b)
	return nil
}

func writeModel(dev device, b []byte) error {
	return writeFiles([]device{dev}, modelName, modelMagic, func(add func(int, string, snapRecord) error) error {
		for ; len(b) > 0; b = b[min(len(b), maxRecordLen):] {
			if err := add(0, "", modelChunk(b[:min(len(b), maxRecordLen)])); err != nil {
				return err
			}
		}
		return nil
	})
}

// readModel reads the model file's bytes. Any framing, CRC or magic
// failure is an error that names the file.
func readModel(dev device) ([]byte, error) {
	f, err := dev.open(modelName)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var b []byte
	n, err := readRecords(io.NewSectionReader(f, 0, math.MaxInt64), false, func(p []byte) error {
		if b == nil && string(p) != modelMagic {
			return errors.New("bad magic")
		}
		b = append(b, p...)
		return nil
	})
	if err == nil && n < 2 {
		err = errors.New("no model bytes")
	}
	if err != nil {
		return nil, fmt.Errorf("store: model file %s: %v", modelName, err)
	}
	return b[len(modelMagic):], nil
}
