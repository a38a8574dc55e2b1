package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"
)

// DefaultTail is the memory tail of a journal that writes to a file.
const DefaultTail = 4096

// Journal is the one event store. Everything that records an event —
// the controller's control loop, training runs, the switch's explain
// sampler, trace spans, drift crossings — records a JournalRecord of its
// own kind, and every record carries the run ID, a per-journal sequence
// number, a wall-clock time (to correlate machines) and a monotonic
// offset from the journal's start (durations immune to clock steps).
//
// A journal keeps its last records in memory, dumped at /debug/vars. A
// journal opened on a writer also appends each record to it as one JSON
// line. One mutex orders sequence numbers, the tail and the lines, so a
// journal written by concurrent goroutines is well-formed line by line
// and its lines come in sequence order. ReadJournal reads the lines back.
type Journal struct {
	runID string
	start time.Time

	mu     sync.Mutex
	tail   Ring[JournalRecord]
	w      *bufio.Writer // nil for a memory-only journal
	closer io.Closer     // nil when the caller owns the writer
	seq    uint64
	err    error // first write error, sticky
}

// JournalRecord is one record: the envelope every observability line
// shares.
type JournalRecord struct {
	RunID string `json:"run_id"`
	Seq   uint64 `json:"seq"`
	// Wall is the wall-clock time the event was recorded, RFC3339Nano.
	Wall time.Time `json:"wall"`
	// MonoNs is the monotonic offset since the journal was opened.
	MonoNs int64  `json:"mono_ns"`
	Kind   string `json:"kind"`
	// Fields is the payload. In a journal's memory tail it is the value
	// the writer passed, deep-copied; read back by ReadJournal it is the
	// payload's JSON, a json.RawMessage. Decode reads either.
	Fields any `json:"fields,omitempty"`
}

// Decode unmarshals the record's payload into v.
func (r JournalRecord) Decode(v any) error {
	raw, ok := r.Fields.(json.RawMessage)
	if !ok {
		b, err := json.Marshal(r.Fields)
		if err != nil {
			return err
		}
		raw = b
	}
	return json.Unmarshal(raw, v)
}

// NewRunID returns a fresh run identifier: UTC timestamp plus random
// suffix, unique enough to correlate journals, metrics, and artifacts
// of one run.
func NewRunID() string {
	return fmt.Sprintf("run-%s-%04x",
		time.Now().UTC().Format("20060102T150405"), rand.Intn(1<<16))
}

// NewFlightRecorder builds a memory-only journal keeping its last
// capacity records (1024 when capacity <= 0): the control-plane black
// box, cheap enough to leave on — its records are never marshaled until
// /debug/vars is read.
func NewFlightRecorder(capacity int) *Journal {
	return &Journal{runID: NewRunID(), start: time.Now(), tail: NewRing[JournalRecord](capacity)}
}

// NewJournal builds a journal appending to w under the given run ID (a
// fresh NewRunID when empty), with a DefaultTail memory tail. The caller
// retains ownership of w.
func NewJournal(w io.Writer, runID string) *Journal {
	j := NewFlightRecorder(DefaultTail)
	if runID != "" {
		j.runID = runID
	}
	j.w = bufio.NewWriter(w)
	return j
}

// OpenJournal creates (or truncates) a journal file at path. Close
// flushes and closes the file.
func OpenJournal(path, runID string) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: journal %s: %w", path, err)
	}
	j := NewJournal(f, runID)
	j.closer = f
	return j, nil
}

// RunID returns the journal's run identifier.
func (j *Journal) RunID() string { return j.runID }

// Event records one event. fields may be any JSON-marshalable value
// (typically a map or a struct); nil omits the payload. Maps, slices and
// byte slices in it are deep-copied, so the caller may reuse them. The
// memory tail always takes the record; on a journal with a writer, the
// first marshal or write error is returned, and the first write error is
// retained — subsequent Events keep failing with it, so callers may check
// once at Close.
func (j *Journal) Event(kind string, fields any) error {
	fields = copyField(fields)
	var raw json.RawMessage
	if j.w != nil && fields != nil {
		b, err := json.Marshal(fields)
		if err != nil {
			return fmt.Errorf("telemetry: journal event %s: %w", kind, err)
		}
		raw = b
	}
	now := time.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	rec := JournalRecord{
		RunID:  j.runID,
		Seq:    j.seq,
		Wall:   now,
		MonoNs: now.Sub(j.start).Nanoseconds(),
		Kind:   kind,
		Fields: fields,
	}
	j.tail.Put(rec)
	if j.w == nil || j.err != nil {
		return j.err
	}
	if raw != nil {
		rec.Fields = raw
	}
	line, err := json.Marshal(rec)
	if err == nil {
		_, err = j.w.Write(append(line, '\n'))
	}
	if err != nil {
		j.err = fmt.Errorf("telemetry: journal write: %w", err)
	}
	return j.err
}

// copyField deep-copies an event payload: map[string]any, []any and
// []byte values are cloned; everything else is copied by value.
func copyField(v any) any {
	switch x := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = copyField(e)
		}
		return out
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = copyField(e)
		}
		return out
	case []byte:
		return append([]byte(nil), x...)
	default:
		return v
	}
}

// Records returns the memory tail, oldest first.
func (j *Journal) Records() []JournalRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tail.Values()
}

// WriteJSON dumps the memory tail as one JSON object (/debug/vars).
func (j *Journal) WriteJSON(w io.Writer) error {
	j.mu.Lock()
	dump := struct {
		RunID    string          `json:"run_id"`
		Total    uint64          `json:"total"`
		Capacity int             `json:"capacity"`
		Dropped  uint64          `json:"dropped"`
		UptimeNs int64           `json:"uptime_ns"`
		Records  []JournalRecord `json:"records"`
	}{j.runID, j.seq, j.tail.Cap(), j.tail.Dropped(), time.Since(j.start).Nanoseconds(), j.tail.Values()}
	j.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}

// Flush pushes buffered records to the underlying writer.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.w == nil || j.err != nil {
		return j.err
	}
	return j.w.Flush()
}

// Close flushes and, when the journal owns its file, closes it. It
// returns the first error the journal encountered.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.w == nil {
		return nil
	}
	ferr := j.w.Flush()
	if j.closer != nil {
		if cerr := j.closer.Close(); ferr == nil {
			ferr = cerr
		}
		j.closer = nil
	}
	if j.err != nil {
		return j.err
	}
	return ferr
}

// ReadJournal parses a JSONL journal stream into records, each payload
// kept as raw JSON, tolerating a trailing partial line (a crashed writer)
// or a corrupt one by returning what parsed cleanly before it along with
// an error naming the line.
func ReadJournal(r io.Reader) ([]JournalRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []JournalRecord
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		// The outer Fields shadows the record's: the payload stays raw.
		var rec struct {
			JournalRecord
			Fields json.RawMessage `json:"fields"`
		}
		if err := json.Unmarshal(text, &rec); err != nil {
			return out, fmt.Errorf("telemetry: journal line %d: %w", line, err)
		}
		if rec.Fields != nil {
			rec.JournalRecord.Fields = rec.Fields
		}
		out = append(out, rec.JournalRecord)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("telemetry: journal read: %w", err)
	}
	return out, nil
}
