package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/relation"
)

// This file is the server's persistence: an append-only ingest log that
// lets a restarted server rebuild the exact pre-shutdown snapshot instead
// of paying a cold full build on an aged base corpus.
//
// Format: one JSON record per '\n'-terminated line, each record the
// *applied* (change-effective) operations of one publication, in apply
// order. Logging effective ops per publication — rather than raw request
// batches — makes replay exactly reproduce the live run's publication
// boundaries: every record bumps the version by one and re-derives the
// same violations, partition churn, and counters, so the replayed
// server's Stats match the pre-shutdown Stats field for field (given the
// same base database and Options).
//
// Facts are stored as predicate + argument names, not interned ids or
// parser text, so records are immune to interning order and to constants
// the text syntax would need quoting for.
//
// Durability: each record is written with a single Write before the
// publication's snapshot is returned to callers, so a process crash loses
// at most the publication in flight. There is no fsync — an OS crash can
// lose the tail — and a torn final line (a crash mid-write) is detected
// on open, dropped, and truncated away before appending resumes. A
// complete-but-undecodable interior line is corruption and fails the
// open instead of being skipped.

type logRecord struct {
	Ops []logOp `json:"ops"`
}

type logOp struct {
	Pred   string   `json:"p"`
	Args   []string `json:"a"`
	Insert bool     `json:"ins,omitempty"`
}

// opLog is an open ingest log positioned for appending. The Server calls
// append under its writer lock, so opLog itself needs no synchronization.
type opLog struct {
	f *os.File
}

// openOpLog opens (creating if absent) the log at path, decodes every
// complete record into replayable batches, truncates a torn trailing
// line, and leaves the file positioned for appending.
func openOpLog(path string) (*opLog, [][]Op, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	var batches [][]Op
	valid := int64(0)
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			// No terminating newline: records are written atomically with a
			// trailing '\n', so this is the torn tail of a crashed write.
			break
		}
		line := data[:nl]
		var rec logRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("op log %s: record %d: %w", path, len(batches)+1, err)
		}
		batch := make([]Op, len(rec.Ops))
		for i, op := range rec.Ops {
			batch[i] = Op{Fact: relation.NewFact(op.Pred, op.Args...), Insert: op.Insert}
		}
		batches = append(batches, batch)
		valid += int64(nl + 1)
		data = data[nl+1:]
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &opLog{f: f}, batches, nil
}

// append writes one publication's applied operations as a single record.
func (l *opLog) append(applied []core.FactDelta) error {
	rec := logRecord{Ops: make([]logOp, len(applied))}
	for i, op := range applied {
		rec.Ops[i] = logOp{Pred: op.Fact.PredName(), Args: op.Fact.ArgNames(), Insert: op.Insert}
	}
	buf, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = l.f.Write(buf)
	return err
}

func (l *opLog) Close() error { return l.f.Close() }
