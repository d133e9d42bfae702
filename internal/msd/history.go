package msd

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"microsampler/internal/history"
	"microsampler/internal/report"
)

// Differential observability surface: a journaled daemon lists its
// verdicts by label — the code state that produced them (JobRequest and
// BatchRequest Label, defaulting at admission to the daemon binary's
// VCS stamp) — at GET /api/v1/history, and POST /api/v1/diff builds the
// verdict diff between two labels, feeding every clean↔leaky flip into
// the msd_verdict_flips_total counter. The history is a view of the
// journal and the verdict store, read on every call; nothing keeps a
// second copy of a verdict for it.

// historyEntry is one record of the run history plus where its diffable
// artifact lives: the stored artifact set of job id (the blob key names,
// or jobs/<id>/ when keyless), or the digest a batch point carries.
type historyEntry struct {
	history.Record
	id, key string
	digest  []byte
}

// historyView replays journal bytes into the run history, in journal
// order. A done report or matrix job is one record: its submit record
// gives label, workload and kind, its done record time and summary, and
// its last start record the elapsed time (none for a job that never ran,
// such as a cache hit). A successful batch point is a report record
// under its batch's label. A job or batch journaled with no label names
// no code state and is not listed.
func historyView(raw []byte) []historyEntry {
	// listed holds, by job or batch ID, the record a result is listed
	// as: one for a labeled job, one per point for a labeled batch.
	listed := map[string][]history.Record{}
	started := map[string]time.Time{}
	var out []historyEntry
	forEachJournalLine(raw, func(_ []byte, r journalRecord) {
		switch r.Event {
		case "submit":
			if r.Req != nil && r.Req.Label != "" {
				rec := history.Record{Label: r.Req.Label, Workload: r.Req.point().WorkloadName(), Kind: history.KindReport}
				if r.Req.Matrix != "" {
					rec.Kind = history.KindMatrix
				}
				listed[r.ID] = []history.Record{rec}
			}
		case "batch-submit":
			if r.BatchReq != nil && r.BatchReq.Label != "" {
				points, _ := r.BatchReq.points()
				for _, p := range points {
					listed[r.ID] = append(listed[r.ID], history.Record{Label: r.BatchReq.Label, Workload: p.WorkloadName(), Kind: history.KindReport})
				}
			}
		case "start":
			started[r.ID] = r.Time
		case "done":
			if recs := listed[r.ID]; len(recs) == 1 {
				rec := recs[0]
				rec.Time = r.Time.UTC().Format(time.RFC3339)
				if r.Summary != nil {
					rec.Summary = *r.Summary
				}
				if st, ok := started[r.ID]; ok {
					rec.ElapsedMillis = r.Time.Sub(st).Milliseconds()
				}
				out = append(out, historyEntry{Record: rec, id: r.ID, key: r.Key})
			}
		case "batch-point":
			if recs, res := listed[r.ID], r.PointRes; res != nil && res.Err == "" && r.PointIdx >= 0 && r.PointIdx < len(recs) {
				rec := recs[r.PointIdx]
				rec.Time, rec.Summary = r.Time.UTC().Format(time.RFC3339), res.Summary
				out = append(out, historyEntry{Record: rec, digest: res.Digest})
			}
		}
	})
	return out
}

// history reads the run history from the journal. Without a journal, or
// when the journal cannot be read, it answers the request itself.
func (s *Server) history(w http.ResponseWriter) ([]historyEntry, bool) {
	if s.jrn == nil {
		writeError(w, http.StatusNotFound, "history disabled: daemon runs without a journal")
		return nil, false
	}
	raw, err := os.ReadFile(filepath.Join(s.jrn.dir, "journal.jsonl"))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "read journal: %v", err)
		return nil, false
	}
	return historyView(raw), true
}

// matchHistory returns the entries that match every non-empty filter,
// in journal order.
func matchHistory(hist []historyEntry, label, workload, kind string) []historyEntry {
	var out []historyEntry
	for _, e := range hist {
		if (label == "" || e.Label == label) && (workload == "" || e.Workload == workload) && (kind == "" || e.Kind == kind) {
			out = append(out, e)
		}
	}
	return out
}

// historyArtifact decodes an entry's diffable artifact into v: a batch
// point's digest, or the digest or matrix artifact of the job's stored
// set.
func (s *Server) historyArtifact(e historyEntry, v any) error {
	name, data := "digest", e.digest
	if e.Kind == history.KindMatrix {
		name = "matrix"
	}
	if e.id != "" {
		arts, err := s.loadStored(&Job{ID: e.id, key: e.key})
		if err != nil {
			return fmt.Errorf("%s: %w", e.Label, err)
		}
		data = arts[name].data
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s %s artifact: %w", e.Label, name, err)
	}
	return nil
}

// handleHistory lists the run-history records, optionally narrowed by
// ?label= and ?workload=.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	hist, ok := s.history(w)
	if !ok {
		return
	}
	out := []history.Record{}
	for _, e := range matchHistory(hist, r.URL.Query().Get("label"), r.URL.Query().Get("workload"), "") {
		out = append(out, e.Record)
	}
	writeJSON(w, http.StatusOK, map[string]any{"records": out})
}

// diffRequest is the POST /api/v1/diff payload: diff the latest run
// labeled To against the latest labeled From (optionally pinned to one
// workload). The kind — report or matrix — follows the To record.
type diffRequest struct {
	Workload string  `json:"workload,omitempty"`
	From     string  `json:"from"`
	To       string  `json:"to"`
	VDelta   float64 `json:"vDelta,omitempty"`
}

// handleDiff builds the verdict diff between two labeled history
// states and answers with the diff artifact plus a regression summary.
// Every flip it surfaces increments msd_verdict_flips_total.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	hist, ok := s.history(w)
	if !ok {
		return
	}
	var req diffRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if req.From == "" || req.To == "" {
		writeError(w, http.StatusBadRequest, "from and to labels are required")
		return
	}
	tos := matchHistory(hist, req.To, req.Workload, "")
	if len(tos) == 0 {
		writeError(w, http.StatusNotFound, "no history record labeled %q", req.To)
		return
	}
	// The latest record of each label is diffed. Pin the baseline to the
	// to-side's workload unless the caller already did, so cross-workload
	// noise never masquerades as a diff.
	toRec := tos[len(tos)-1]
	workload := cmp.Or(req.Workload, toRec.Workload)
	froms := matchHistory(hist, req.From, workload, toRec.Kind)
	if len(froms) == 0 {
		writeError(w, http.StatusNotFound, "no %s record labeled %q for workload %q",
			toRec.Kind, req.From, workload)
		return
	}
	fromRec := froms[len(froms)-1]
	opts := report.DiffOptions{FromLabel: req.From, ToLabel: req.To, VDelta: req.VDelta}

	var d any
	var flips, regs, imps int
	var err error
	if toRec.Kind == history.KindMatrix {
		var from, to report.MatrixArtifact
		if err = errors.Join(s.historyArtifact(fromRec, &from), s.historyArtifact(toRec, &to)); err == nil {
			md := report.BuildMatrixDiff(&from, &to, opts)
			d, flips, regs, imps = md, len(md.Flips), md.Regressions, md.Improvements
		}
	} else {
		var from, to report.ReportDigest
		if err = errors.Join(s.historyArtifact(fromRec, &from), s.historyArtifact(toRec, &to)); err == nil {
			rd := report.BuildDiff(&from, &to, opts)
			d, flips, regs, imps = rd, len(rd.Flips), rd.Regressions, rd.Improvements
		}
	}
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	s.verdictFlips.Add(uint64(flips))
	writeJSON(w, http.StatusOK, map[string]any{
		"kind":         toRec.Kind,
		"regression":   regs > 0,
		"flips":        flips,
		"regressions":  regs,
		"improvements": imps,
		"diff":         d,
	})
}
