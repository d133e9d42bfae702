package msd

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"time"

	"microsampler/internal/cluster"
	"microsampler/internal/core"
	"microsampler/internal/version"
)

// Batch verification: POST /api/v1/batch accepts many program×config
// points in one request — entries with a matrix field explode into one
// point per grid cell — and the coordinator shards them across the
// healthy worker set via internal/cluster. Batch state is journaled
// through the same fsync'd WAL as jobs ("batch-submit" on admission,
// "batch-point" per terminal point, "batch-done" at the end), so a
// coordinator killed mid-batch recovers the batch on restart and
// re-dispatches only the points without a journaled result. Partial
// results are always retrievable from GET /api/v1/batch/{id}.

// maxBatchPoints bounds one batch after matrix explosion; a request
// beyond it is rejected rather than silently truncated.
const maxBatchPoints = 1024

// BatchEntry is one line of a batch request: a wire adapter over
// cluster.Point naming a single verification point, or — with Matrix
// set — a whole configuration grid that explodes into one point per
// cell.
type BatchEntry struct {
	// Exactly one of Workload or Source names the program.
	Workload string `json:"workload,omitempty"`
	Source   string `json:"source,omitempty"`

	// Matrix explodes this entry across a configuration grid ("default"
	// or an "axis=v1,v2;axis=..." spec — core.ParseGridSpec). Cell,
	// Config and FastBypass are ignored when set.
	Matrix string `json:"matrix,omitempty"`
	// Cell pins one grid cell by its canonical name; Config/FastBypass
	// select a plain configuration when both Matrix and Cell are empty.
	Cell       string `json:"cell,omitempty"`
	Config     string `json:"config,omitempty"`
	FastBypass bool   `json:"fastBypass,omitempty"`

	Runs          int  `json:"runs,omitempty"`
	Warmup        int  `json:"warmup,omitempty"`
	SeedOffset    int  `json:"seedOffset,omitempty"`
	MeasureStages bool `json:"measureStages,omitempty"`
}

// BatchRequest is the POST /api/v1/batch payload.
type BatchRequest struct {
	// Label names the code state the batch's successful points are
	// listed under in the coordinator's run history (GET
	// /api/v1/history). Admission defaults an empty label to the daemon
	// binary's VCS stamp before the batch is journaled.
	Label   string       `json:"label,omitempty"`
	Entries []BatchEntry `json:"points"`
}

// points expands the request into its flat point list,
// deterministically: the same request always yields the same points in
// the same order, which is what lets recovery rebuild a journaled batch
// from its "batch-submit" record alone.
func (r BatchRequest) points() ([]cluster.Point, error) {
	if len(r.Entries) == 0 {
		return nil, fmt.Errorf("batch has no points")
	}
	var points []cluster.Point
	for ei, e := range r.Entries {
		base := cluster.Point{
			Workload: e.Workload, Source: e.Source,
			Cell: e.Cell, Config: e.Config, FastBypass: e.FastBypass,
			Runs: e.Runs, Warmup: e.Warmup, SeedOffset: e.SeedOffset,
			MeasureStages: e.MeasureStages,
		}
		if e.Matrix == "" {
			points = append(points, base)
			continue
		}
		if e.Cell != "" {
			return nil, fmt.Errorf("point %d: matrix and cell are mutually exclusive", ei)
		}
		grid, err := core.ParseGridSpec(e.Matrix)
		if err != nil {
			return nil, fmt.Errorf("point %d: %v", ei, err)
		}
		for _, cell := range grid.Cells() {
			p := base
			p.Cell = cell.Name
			p.Config, p.FastBypass = "", false
			points = append(points, p)
		}
	}
	if len(points) > maxBatchPoints {
		return nil, fmt.Errorf("batch explodes to %d points, max %d", len(points), maxBatchPoints)
	}
	return points, nil
}

// newBatch explodes a request into a running batch: its points, no
// keys (see keyPoints) and no result yet. The caller sets the ID and
// the submission time.
func newBatch(req BatchRequest) (*Batch, error) {
	points, err := req.points()
	if err != nil {
		return nil, err
	}
	return &Batch{Req: req, Points: points, Results: make([]*cluster.PointResult, len(points)), Status: BatchRunning}, nil
}

// keyPoints computes, once, the points' canonical cache keys, which
// dispatch needs. A key costs ~154 µs, so recovery keys only the
// batches that resume, and a batch recovered finished keys itself on
// its first view. A point with a result that this binary no longer
// keys (its workload is gone, say) takes the key its result carries.
func (b *Batch) keyPoints() error {
	if b.Keys != nil {
		return nil
	}
	b.Keys = make([]string, len(b.Points))
	for i, p := range b.Points {
		var err error
		if b.Keys[i], err = p.Key(); err != nil {
			if b.Results[i] == nil {
				return fmt.Errorf("point %d: %v", i, err)
			}
			b.Keys[i] = b.Results[i].Key
		}
	}
	return nil
}

// Batch statuses.
const (
	BatchRunning = "running"
	BatchDone    = "done"
)

// Batch is one tracked batch: the exploded point list, per-point
// terminal results as they land, and the dispatch tallies.
type Batch struct {
	ID     string
	Req    BatchRequest
	Points []cluster.Point
	Keys   []string
	// Results is parallel to Points; nil marks a point not yet terminal.
	Results []*cluster.PointResult

	Status    string
	Submitted time.Time
	Finished  time.Time

	// Done/Failed/DegradedPts tally terminal points; Reassigned/Hedged
	// count dispatch pathologies (carried into the batch-done record).
	Done, Failed, DegradedPts int
	Reassigned, Hedged        int
}

// batchPointView is one point of a batch on the wire.
type batchPointView struct {
	Index    int                  `json:"index"`
	Workload string               `json:"workload"`
	Cell     string               `json:"cell,omitempty"`
	Config   string               `json:"config,omitempty"`
	Key      string               `json:"key"`
	Done     bool                 `json:"done"`
	Result   *cluster.PointResult `json:"result,omitempty"`
}

// batchView is a batch on the wire. Degraded flags a batch any point of
// which fell back to coordinator-local execution — the graceful answer
// to zero healthy workers.
type batchView struct {
	ID             string    `json:"id"`
	Status         string    `json:"status"`
	Points         int       `json:"points"`
	Done           int       `json:"done"`
	Failed         int       `json:"failed"`
	Degraded       bool      `json:"degraded"`
	DegradedPoints int       `json:"degradedPoints,omitempty"`
	Reassigned     int       `json:"reassigned,omitempty"`
	Hedged         int       `json:"hedged,omitempty"`
	Label          string    `json:"label,omitempty"`
	Submitted      time.Time `json:"submitted"`
	Finished       time.Time `json:"finished,omitzero"`

	Results []batchPointView `json:"results,omitempty"`
}

// view snapshots the batch; callers hold s.mu. withPoints adds the
// per-point result list (the single-batch endpoint).
func (b *Batch) view(withPoints bool) batchView {
	v := batchView{
		ID: b.ID, Status: b.Status,
		Points: len(b.Points), Done: b.Done, Failed: b.Failed,
		Degraded: b.DegradedPts > 0, DegradedPoints: b.DegradedPts,
		Reassigned: b.Reassigned, Hedged: b.Hedged,
		Label: b.Req.Label, Submitted: b.Submitted, Finished: b.Finished,
	}
	if !withPoints {
		return v
	}
	v.Results = make([]batchPointView, len(b.Points))
	// A batch recovered finished is keyed on its first view. Every point
	// has a result then, so keyPoints cannot fail.
	b.keyPoints()
	for i, p := range b.Points {
		pv := batchPointView{
			Index: i, Workload: p.WorkloadName(),
			Cell: p.Cell, Config: p.Config, Key: b.Keys[i],
		}
		if r := b.Results[i]; r != nil {
			pv.Done = true
			res := *r
			pv.Result = &res
		}
		v.Results[i] = pv
	}
	return v
}

// handleBatchSubmit admits a batch: validate and explode, journal the
// submission, and launch the dispatcher.
func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	req.Label = cmp.Or(req.Label, version.DefaultLabel())
	b, err := newBatch(req)
	if err == nil {
		err = b.keyPoints()
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejected.Inc()
		writeError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	s.nextBatchID++
	b.ID, b.Submitted = fmt.Sprintf("batch-%d", s.nextBatchID), time.Now()
	s.batches[b.ID] = b
	s.batchOrder = append(s.batchOrder, b.ID)
	// Journal before acknowledging, under the lock so journal order
	// matches admission order — the WAL discipline jobs follow.
	s.journal(journalRecord{Event: "batch-submit", Time: b.Submitted, ID: b.ID, BatchReq: &b.Req})
	view := b.view(false)
	s.mu.Unlock()

	s.batchWG.Add(1)
	go s.runBatch(b)
	s.log.Info("batch submitted", "batch", b.ID, "points", len(b.Points))
	writeJSON(w, http.StatusAccepted, view)
}

func (s *Server) handleBatchList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	views := make([]batchView, 0, len(s.batchOrder))
	for _, id := range s.batchOrder {
		views = append(views, s.batches[id].view(false))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"batches": views})
}

func (s *Server) handleBatchStatus(w http.ResponseWriter, r *http.Request) {
	serveView(s, w, s.batches, "batch", r.PathValue("id"), func(b *Batch) batchView { return b.view(true) })
}

// runBatch drives a batch's unresolved points to terminal results and
// seals it. Each terminal point is journaled before it becomes visible
// in the batch view, so a SIGKILL'd coordinator recovers every point
// that was ever observable.
func (s *Server) runBatch(b *Batch) {
	defer s.batchWG.Done()

	// Dispatch only the points without a result — on first submission
	// that is all of them, on post-crash resumption just the remainder.
	s.mu.Lock()
	var points []cluster.Point
	var keys []string
	var idxs []int
	for i, r := range b.Results {
		if r == nil {
			points = append(points, b.Points[i])
			keys = append(keys, b.Keys[i])
			idxs = append(idxs, i)
		}
	}
	s.mu.Unlock()

	if len(points) > 0 {
		d := s.dispatcher(b)
		d.Run(context.Background(), points, keys, func(di int, res cluster.PointResult) {
			i := idxs[di]
			s.journal(journalRecord{
				Event: "batch-point", Time: time.Now(), ID: b.ID,
				PointIdx: i, PointRes: &res,
			})
			s.mu.Lock()
			s.applyPointLocked(b, i, res)
			s.mu.Unlock()
		})
	}

	finished := time.Now()
	s.mu.Lock()
	b.Status = BatchDone
	b.Finished = finished
	rec := journalRecord{
		Event: "batch-done", Time: finished, ID: b.ID,
		Done: b.Done, FailedPts: b.Failed, DegradedPts: b.DegradedPts,
		Reassigned: b.Reassigned, Hedged: b.Hedged,
	}
	// Finished batches fall under the job retention bound; the one that
	// just finished is spared, as a finished job is.
	var evicted []string
	s.batchOrder, evicted = evictOldest(s.batchOrder, s.batches, s.cfg.MaxJobs, b.ID,
		func(b *Batch) bool { return b.Status == BatchDone })
	s.mu.Unlock()
	s.journal(rec)
	s.dropEvicted(evicted)
	s.log.Info("batch done", "batch", b.ID,
		"done", rec.Done, "failed", rec.FailedPts, "degraded", rec.DegradedPts,
		"reassigned", rec.Reassigned, "hedged", rec.Hedged)
}

// applyPointLocked records one point's terminal result in the batch and
// the daemon counters; callers hold s.mu. Idempotent per index so a
// recovery replay cannot double-count.
func (s *Server) applyPointLocked(b *Batch, i int, res cluster.PointResult) {
	if i < 0 || i >= len(b.Results) || b.Results[i] != nil {
		return
	}
	r := res
	b.Results[i] = &r
	if res.Err != "" {
		b.Failed++
		s.pointsFailed.Inc()
	} else {
		b.Done++
		s.pointsDone.Inc()
	}
	if res.Degraded {
		b.DegradedPts++
		s.pointsDegraded.Inc()
	}
}

// recoverBatches rebuilds the batch table from a previous incarnation's
// journal: batch-submit re-explodes the request (explosion is
// deterministic, so indices line up), batch-point fills the results
// that were terminal before the crash, batch-done seals; then a batch
// that resumes computes its keys (see keyPoints). Runs before the HTTP
// surface exists, so plain field access is race-free — except the
// shared counters, which applyPointLocked touches anyway.
func (s *Server) recoverBatches(recs []journalRecord) {
	for _, r := range recs {
		switch r.Event {
		case "batch-submit":
			if r.BatchReq == nil {
				continue
			}
			b, err := newBatch(*r.BatchReq)
			if err != nil {
				s.log.Warn("journaled batch no longer explodes", "batch", r.ID, "err", err)
				continue
			}
			if _, dup := s.batches[r.ID]; !dup {
				s.batchOrder = append(s.batchOrder, r.ID)
			}
			b.ID, b.Submitted = r.ID, r.Time
			s.batches[r.ID] = b
			if n := idNum(r.ID); n > s.nextBatchID {
				s.nextBatchID = n
			}
		case "batch-point":
			b := s.batches[r.ID]
			if b == nil || r.PointRes == nil {
				continue
			}
			s.applyPointLocked(b, r.PointIdx, *r.PointRes)
		case "batch-done":
			if b := s.batches[r.ID]; b != nil {
				b.Status = BatchDone
				b.Finished = r.Time
				b.Reassigned = r.Reassigned
				b.Hedged = r.Hedged
			}
		case "evict":
			delete(s.batches, r.ID)
			s.batchOrder = slices.DeleteFunc(s.batchOrder, func(id string) bool { return id == r.ID })
		}
	}
	s.batchOrder = slices.DeleteFunc(s.batchOrder, func(id string) bool {
		b := s.batches[id]
		if b.Status == BatchDone {
			return false
		}
		err := b.keyPoints()
		if err != nil {
			s.log.Warn("journaled batch no longer keys", "batch", id, "err", err)
			delete(s.batches, id)
		}
		return err != nil
	})
}

// resumeBatches relaunches dispatch for every recovered batch that was
// still running at the crash, finishing just its unresolved points.
// Each resumed batch briefly waits for workers to re-register before
// dispatching, so a whole-cluster restart does not stampede the
// coordinator into degraded local execution.
func (s *Server) resumeBatches() {
	s.mu.Lock()
	var resume []*Batch
	for _, id := range s.batchOrder {
		if b := s.batches[id]; b.Status == BatchRunning {
			resume = append(resume, b)
		}
	}
	s.mu.Unlock()
	for _, b := range resume {
		s.log.Info("batch resumed after restart", "batch", b.ID,
			"remaining", len(b.Points)-b.Done-b.Failed)
		s.batchWG.Add(1)
		go func(b *Batch) {
			s.awaitWorkers(s.members.TTL())
			s.runBatch(b)
		}(b)
	}
}

// awaitWorkers polls the membership until a healthy worker appears or
// the grace period elapses.
func (s *Server) awaitWorkers(grace time.Duration) {
	deadline := time.Now().Add(grace)
	for time.Now().Before(deadline) {
		if len(s.members.Healthy()) > 0 {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
}
