package msd

import (
	"cmp"
	"encoding/json"
	"net/http"

	"microsampler/internal/history"
	"microsampler/internal/report"
	"microsampler/internal/version"
)

// Differential observability surface: when Config.HistoryDir is set,
// every finished job's verdict is filed in the run-history store under
// its label (JobRequest.Label, defaulting to the daemon binary's VCS
// stamp), and the daemon can diff any two labeled states on demand —
// GET /api/v1/history lists the records, POST /api/v1/diff builds the
// verdict diff between two labels and feeds every clean↔leaky flip
// into the msd_verdict_flips_total counter.

// recordHistory files one fresh verdict — a job's or a point's — in
// the history store, with its diffable artifact (a matrix artifact for
// KindMatrix records, a report digest otherwise) filed
// content-addressed and the record's MaxV read from it. An empty label
// defaults to the daemon binary's VCS stamp. A missing artifact (a
// cache entry written before the digest existed) still records the
// verdict, just not diffably. Append failures are logged, not fatal —
// the daemon prefers serving with a degraded history over failing
// completed work.
func (s *Server) recordHistory(rec history.Record, art []byte, runID string) {
	if s.hist == nil {
		return
	}
	rec.Label = cmp.Or(rec.Label, version.DefaultLabel())
	blobs := map[string][]byte{}
	if len(art) > 0 {
		if rec.Kind == history.KindMatrix {
			blobs["matrix"] = art
			var m report.MatrixArtifact
			if json.Unmarshal(art, &m) == nil {
				for _, c := range m.Cells {
					rec.MaxV = max(rec.MaxV, c.MaxV)
				}
			}
		} else {
			blobs["digest"] = art
			var dg report.ReportDigest
			if json.Unmarshal(art, &dg) == nil {
				rec.MaxV = dg.MaxV()
			}
		}
	}
	if _, err := s.hist.Append(rec, blobs); err != nil {
		s.log.Warn("history append failed", "run_id", runID, "err", err)
		return
	}
	s.log.Info("history recorded", "run_id", runID,
		"label", rec.Label, "workload", rec.Workload, "kind", rec.Kind)
}

// handleHistory lists the run-history records, optionally narrowed by
// ?label= and ?workload=.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if s.hist == nil {
		writeError(w, http.StatusNotFound, "history disabled: daemon runs without a history dir")
		return
	}
	label := r.URL.Query().Get("label")
	workload := r.URL.Query().Get("workload")
	recs := s.hist.Records()
	out := make([]history.Record, 0, len(recs))
	for _, rec := range recs {
		if (label == "" || rec.Label == label) &&
			(workload == "" || rec.Workload == workload) {
			out = append(out, rec)
		}
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
	if s.hist == nil {
		writeError(w, http.StatusNotFound, "history disabled: daemon runs without a history dir")
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
	toRec, ok := s.hist.Latest(req.To, req.Workload, "")
	if !ok {
		writeError(w, http.StatusNotFound, "no history record labeled %q", req.To)
		return
	}
	// Pin the baseline to the to-side's workload unless the caller
	// already did, so cross-workload noise never masquerades as a diff.
	workload := req.Workload
	if workload == "" {
		workload = toRec.Workload
	}
	fromRec, ok := s.hist.Latest(req.From, workload, toRec.Kind)
	if !ok {
		writeError(w, http.StatusNotFound, "no %s record labeled %q for workload %q",
			toRec.Kind, req.From, workload)
		return
	}
	opts := report.DiffOptions{FromLabel: req.From, ToLabel: req.To, VDelta: req.VDelta}

	artName := "digest"
	if toRec.Kind == history.KindMatrix {
		artName = "matrix"
	}
	fromData, err := s.hist.Artifact(fromRec, artName)
	if err != nil {
		writeError(w, http.StatusNotFound, "baseline %s: %v", req.From, err)
		return
	}
	toData, err := s.hist.Artifact(toRec, artName)
	if err != nil {
		writeError(w, http.StatusNotFound, "current %s: %v", req.To, err)
		return
	}

	if toRec.Kind == history.KindMatrix {
		var from, to report.MatrixArtifact
		if err := json.Unmarshal(fromData, &from); err != nil {
			writeError(w, http.StatusInternalServerError, "baseline matrix: %v", err)
			return
		}
		if err := json.Unmarshal(toData, &to); err != nil {
			writeError(w, http.StatusInternalServerError, "current matrix: %v", err)
			return
		}
		d := report.BuildMatrixDiff(&from, &to, opts)
		s.verdictFlips.Add(uint64(len(d.Flips)))
		writeJSON(w, http.StatusOK, map[string]any{
			"kind":         history.KindMatrix,
			"regression":   d.Regression(),
			"flips":        len(d.Flips),
			"regressions":  d.Regressions,
			"improvements": d.Improvements,
			"diff":         d,
		})
		return
	}
	var from, to report.ReportDigest
	if err := json.Unmarshal(fromData, &from); err != nil {
		writeError(w, http.StatusInternalServerError, "baseline digest: %v", err)
		return
	}
	if err := json.Unmarshal(toData, &to); err != nil {
		writeError(w, http.StatusInternalServerError, "current digest: %v", err)
		return
	}
	d := report.BuildDiff(&from, &to, opts)
	s.verdictFlips.Add(uint64(len(d.Flips)))
	writeJSON(w, http.StatusOK, map[string]any{
		"kind":         history.KindReport,
		"regression":   d.Regression(),
		"flips":        len(d.Flips),
		"regressions":  d.Regressions,
		"improvements": d.Improvements,
		"diff":         d,
	})
}
