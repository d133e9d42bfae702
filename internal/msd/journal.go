package msd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"microsampler/internal/cluster"
	"microsampler/internal/core"
)

// journalRecord is one line of the write-ahead job journal: an event in
// a job's lifecycle, appended (and fsynced) before the corresponding
// in-memory state change becomes externally visible. Replaying the
// journal in order reconstructs the job table of a crashed daemon.
type journalRecord struct {
	// Event is one of submit, start, done, failed, interrupted, evict
	// (jobs and batches), batch-submit, batch-point, batch-done, audit.
	Event string    `json:"event"`
	Time  time.Time `json:"time"`
	ID    string    `json:"id"`

	// Req is recorded on submit, so a recovered queued job can re-run.
	Req *JobRequest `json:"req,omitempty"`
	// Err is recorded on failed.
	Err string `json:"err,omitempty"`

	// Summary is the verdict, recorded on done (nil on every other
	// event).
	*core.Summary
	// Cached marks a done job whose verdict was served from the
	// content-addressed cache instead of a fresh simulation.
	Cached bool `json:"cached,omitempty"`
	// Key names the verdict-store blob of the job's artifacts, recorded
	// on done and on a failed job that left a postmortem. Recovery reads
	// it and never recomputes it. Older records have none: their
	// artifacts live under jobs/<id>/.
	Key string `json:"key,omitempty"`

	// Batch fields: BatchReq is recorded on batch-submit (recovery
	// re-explodes it deterministically), PointIdx/PointRes on
	// batch-point — one point's terminal result, the WAL unit of the
	// cluster path — and the tallies on batch-done.
	BatchReq    *BatchRequest        `json:"batchReq,omitempty"`
	PointIdx    int                  `json:"pointIdx,omitempty"`
	PointRes    *cluster.PointResult `json:"pointRes,omitempty"`
	Done        int                  `json:"done,omitempty"`
	FailedPts   int                  `json:"failedPoints,omitempty"`
	DegradedPts int                  `json:"degradedPoints,omitempty"`
	Reassigned  int                  `json:"reassigned,omitempty"`
	Hedged      int                  `json:"hedged,omitempty"`

	// Audit fields, recorded on event "audit" (which carries no job ID):
	// Root is the Merkle root over the Count terminal records starting at
	// terminal ordinal First, and Prev is the chain value before this
	// batch — the chain after it is H(Prev || Root). See merkle.go.
	Root  string `json:"root,omitempty"`
	Prev  string `json:"prev,omitempty"`
	First int    `json:"first,omitempty"`
	Count int    `json:"count,omitempty"`
}

// journal is the daemon's crash-safe persistence: an append-only JSONL
// event log. Finished jobs' artifacts live in the verdict store, which
// the records name by key.
type journal struct {
	dir string

	mu     sync.Mutex
	f      *os.File
	closed bool
}

// openJournal opens (creating as needed) the journal under dir and
// returns the records of any previous incarnation, in append order,
// plus the raw journal bytes so the audit chain can be rebuilt from the
// exact line bytes its leaves hash.
func openJournal(dir string) (*journal, []journalRecord, []byte, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("msd: journal dir: %w", err)
	}
	path := filepath.Join(dir, "journal.jsonl")
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, nil, fmt.Errorf("msd: read journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("msd: open journal: %w", err)
	}
	// A crash mid-append leaves a final line without its newline. Cut it
	// when it is torn and re-terminate it when it is whole, so the next
	// record starts a line of its own instead of merging into it.
	if tail := raw[bytes.LastIndexByte(raw, '\n')+1:]; len(tail) > 0 {
		var rec journalRecord
		if json.Unmarshal(tail, &rec) == nil {
			raw = append(raw, '\n')
			_, err = f.Write([]byte{'\n'})
		} else {
			raw = raw[:len(raw)-len(tail)]
			err = f.Truncate(int64(len(raw)))
		}
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, nil, nil, fmt.Errorf("msd: repair journal tail: %w", err)
		}
	}
	return &journal{dir: dir, f: f}, parseJournal(raw), raw, nil
}

// parseJournal decodes the job and batch records of a journal — every
// line forEachJournalLine accepts that carries an ID, so audit records
// are left to the auditor.
func parseJournal(raw []byte) []journalRecord {
	var recs []journalRecord
	forEachJournalLine(raw, func(_ []byte, rec journalRecord) {
		if rec.ID != "" {
			recs = append(recs, rec)
		}
	})
	return recs
}

// append writes one record and syncs it to stable storage before
// returning, so an acknowledged event survives the process dying at any
// later instant. It returns the exact line bytes written (without the
// trailing newline): the audit chain hashes those bytes as Merkle
// leaves, so any later mutation of the line is detectable.
func (j *journal) append(rec journalRecord) ([]byte, error) {
	data, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("msd: encode journal record: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, fmt.Errorf("msd: journal closed")
	}
	if _, err := j.f.Write(append(data, '\n')); err != nil {
		return nil, fmt.Errorf("msd: append journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return nil, fmt.Errorf("msd: sync journal: %w", err)
	}
	return data, nil
}

// Close releases the journal file; further appends fail.
func (j *journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}

// jobDir is where a keyless record's artifacts live on disk.
func (j *journal) jobDir(id string) string { return filepath.Join(j.dir, "jobs", id) }

// artifactMeta is one entry of a job's artifact manifest in the
// jobs/<id>/ layout of journals written before records named a blob.
type artifactMeta struct {
	File        string `json:"file"`
	ContentType string `json:"contentType"`
}

// loadArtifacts reads a job's artifacts back from its jobs/<id>/
// directory, the layout of a keyless record.
func (j *journal) loadArtifacts(id string) (map[string]artifact, error) {
	dir := j.jobDir(id)
	mdata, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("msd: read manifest: %w", err)
	}
	var manifest map[string]artifactMeta
	if err := json.Unmarshal(mdata, &manifest); err != nil {
		return nil, fmt.Errorf("msd: decode manifest: %w", err)
	}
	arts := make(map[string]artifact, len(manifest))
	for name, meta := range manifest {
		data, err := os.ReadFile(filepath.Join(dir, meta.File))
		if err != nil {
			return nil, fmt.Errorf("msd: read artifact %s: %w", name, err)
		}
		arts[name] = artifact{contentType: meta.ContentType, data: data}
	}
	return arts, nil
}

// removeJob deletes a keyless job's artifact directory (eviction).
func (j *journal) removeJob(id string) error {
	return os.RemoveAll(j.jobDir(id))
}

// idNum extracts the numeric suffix of a "job-N" or "batch-N"
// identifier (0 if the ID has another shape), so a recovered daemon
// resumes its ID sequences past every journaled job and batch.
func idNum(id string) int {
	_, num, _ := strings.Cut(id, "-")
	n, err := strconv.Atoi(num)
	if err != nil || n < 0 {
		return 0
	}
	return n
}
