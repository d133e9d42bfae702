// Package history is the append-only run-history store behind the
// differential observability layer: one fsync'd JSONL index line per
// labeled run (a single verification or a matrix sweep), with the full
// artifacts filed content-addressed in a cache.Disk blob store next to
// the index. The store is the memory that turns one-shot verdicts into
// deltas — "what changed between commit A and commit B" — and follows
// the msd journal's crash-safety discipline: appends are fsync'd
// before they are acknowledged, and a reopen after a crash mid-append
// drops only the torn final line, never an earlier record.
package history

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"microsampler/internal/cache"
	"microsampler/internal/core"
)

// Record kinds: what the primary artifact of a record is.
const (
	// KindReport marks a single verification, whose diffable artifact
	// is the report digest (report.ReportDigest JSON).
	KindReport = "report"
	// KindMatrix marks a configuration-grid sweep, whose diffable
	// artifact is the matrix artifact (report.MatrixArtifact JSON).
	KindMatrix = "matrix"
)

// Record is one line of the history index: the distilled verdict of a
// labeled run plus content-addressed references to its artifacts. Time
// and ElapsedMillis are informational perf stats only — diff artifacts
// are built solely from the referenced artifact blobs, which carry no
// wall-clock quantities.
type Record struct {
	// Label identifies the code state that produced the run — a commit
	// SHA by default (version.DefaultLabel), or any user string.
	Label    string `json:"label"`
	Workload string `json:"workload"`
	// Kind is KindReport or KindMatrix.
	Kind string `json:"kind"`
	// Time is the RFC3339 UTC append time (informational).
	Time string `json:"time,omitempty"`

	// Summary is the run's verdict (core.Report.Summary or
	// core.Matrix.Summary).
	core.Summary
	// ElapsedMillis is the run's wall-clock cost (informational).
	ElapsedMillis int64 `json:"elapsedMillis,omitempty"`

	// Artifacts maps artifact name (e.g. "digest", "matrix") to the
	// SHA-256 content address of its blob in the store.
	Artifacts map[string]string `json:"artifacts,omitempty"`
}

// Store is the on-disk history: dir/index.jsonl plus dir/blobs/. Safe
// for concurrent use.
type Store struct {
	dir   string
	blobs *cache.Disk

	mu   sync.Mutex
	f    *os.File
	recs []Record
}

// Open loads (creating as needed) the history store rooted at dir. A
// torn final index line — the signature of a crash mid-append — is
// dropped and truncated away; a corrupt line anywhere earlier is an
// error, since silently skipping it would rewrite history.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("history: dir: %w", err)
	}
	blobs, err := cache.NewDisk(filepath.Join(dir, "blobs"))
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	path := filepath.Join(dir, "index.jsonl")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("history: index: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("history: read index: %w", err)
	}
	var (
		recs       []Record
		off        int64
		needRepair bool // final line parsed but lost its '\n' terminator
	)
	lines := bytes.Split(data, []byte("\n"))
	for i, line := range lines {
		last := i == len(lines)-1
		if len(bytes.TrimSpace(line)) == 0 {
			// The terminator after the last record, or a blank line.
			if !last {
				off += int64(len(line)) + 1
			}
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			if last {
				// Torn tail from a crash mid-append: drop it. The
				// truncate below makes the next append start cleanly.
				break
			}
			f.Close()
			return nil, fmt.Errorf("history: corrupt index line %d: %w", i+1, err)
		}
		recs = append(recs, r)
		if last {
			// Complete JSON whose trailing '\n' the crash swallowed:
			// keep the record and re-terminate the line below, so the
			// next append cannot merge into it.
			off += int64(len(line))
			needRepair = true
			continue
		}
		off += int64(len(line)) + 1
	}
	if err := f.Truncate(off); err != nil {
		f.Close()
		return nil, fmt.Errorf("history: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(off, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("history: seek: %w", err)
	}
	if needRepair {
		if _, err := f.Write([]byte("\n")); err != nil {
			f.Close()
			return nil, fmt.Errorf("history: repair tail: %w", err)
		}
	}
	return &Store{dir: dir, blobs: blobs, f: f, recs: recs}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close releases the index file. Records already appended stay durable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// BlobKey is the content address of an artifact blob.
func BlobKey(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Append files the artifacts content-addressed, stamps the record with
// their keys (and an append time, if unset), and appends it to the
// index. The blobs and the index line are durable — fsync'd — before
// Append returns the stored record. A blob already on disk with the
// same bytes is read, not written again.
func (s *Store) Append(rec Record, artifacts map[string][]byte) (Record, error) {
	if rec.Label == "" {
		return Record{}, fmt.Errorf("history: record needs a label")
	}
	if rec.Kind != KindReport && rec.Kind != KindMatrix {
		return Record{}, fmt.Errorf("history: unknown record kind %q", rec.Kind)
	}
	if rec.Time == "" {
		rec.Time = time.Now().UTC().Format(time.RFC3339)
	}
	if len(artifacts) > 0 {
		rec.Artifacts = make(map[string]string, len(artifacts))
		for name, data := range artifacts {
			key := BlobKey(data)
			if old, ok, err := s.blobs.Get(key); err == nil && ok && bytes.Equal(old, data) {
				rec.Artifacts[name] = key
				continue
			}
			if err := s.blobs.Put(key, data); err != nil {
				return Record{}, fmt.Errorf("history: artifact %s: %w", name, err)
			}
			rec.Artifacts[name] = key
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return Record{}, fmt.Errorf("history: encode record: %w", err)
	}
	line = append(line, '\n')

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.Write(line); err != nil {
		return Record{}, fmt.Errorf("history: append: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return Record{}, fmt.Errorf("history: sync: %w", err)
	}
	s.recs = append(s.recs, rec)
	return rec, nil
}

// Records returns a copy of every record, in append order.
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, len(s.recs))
	copy(out, s.recs)
	return out
}

// Len reports the number of records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Latest returns the most recent record matching the given filters; an
// empty filter value matches anything. ok is false when nothing
// matches.
func (s *Store) Latest(label, workload, kind string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.recs) - 1; i >= 0; i-- {
		r := s.recs[i]
		if (label == "" || r.Label == label) &&
			(workload == "" || r.Workload == workload) &&
			(kind == "" || r.Kind == kind) {
			return r, true
		}
	}
	return Record{}, false
}

// Artifact loads a record's named artifact from the blob store.
func (s *Store) Artifact(rec Record, name string) ([]byte, error) {
	key, ok := rec.Artifacts[name]
	if !ok {
		return nil, fmt.Errorf("history: record %s/%s has no artifact %q", rec.Label, rec.Workload, name)
	}
	data, ok, err := s.blobs.Get(key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("history: artifact %q blob %s missing", name, key[:12])
	}
	return data, nil
}
