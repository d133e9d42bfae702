package msd

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"

	"microsampler/internal/cluster"
	"microsampler/internal/core"
	"microsampler/internal/report"
)

// Cluster surfaces of the daemon. Every msd can execute a shard on a
// coordinator's behalf (POST /api/v1/cluster/execute); a daemon started
// with Config.Coordinator additionally runs the membership table and
// the shared verdict store, and a daemon started with
// Config.CoordinatorURL consults that store on every point-cache miss
// before simulating and uploads fresh verdicts back — the cross-node
// cache fill that makes worker-death reassignment a cache hit instead
// of a re-simulation.

// handleClusterRegister admits (or revives) a worker.
func (s *Server) handleClusterRegister(w http.ResponseWriter, r *http.Request) {
	var req cluster.RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if req.ID == "" || req.URL == "" {
		writeError(w, http.StatusBadRequest, "id and url are required")
		return
	}
	s.members.Register(req.ID, req.URL)
	s.log.Info("worker registered", "worker", req.ID, "url", req.URL)
	writeJSON(w, http.StatusOK, map[string]string{"status": "registered"})
}

// handleClusterHeartbeat refreshes a worker's liveness; an unknown
// worker gets 404 so its agent re-registers.
func (s *Server) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req cluster.HeartbeatRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if !s.members.Heartbeat(req.ID) {
		writeError(w, http.StatusNotFound, "unknown worker %q: register first", req.ID)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleClusterWorkers lists the registered worker set with liveness.
func (s *Server) handleClusterWorkers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"workers": s.members.Snapshot()})
}

// handleClusterExecute runs one point on this daemon: the worker side
// of a coordinator dispatch. The response is always a terminal
// PointResult — verdict-level failures ride inside it with HTTP 200,
// so the dispatcher can tell "the point fails deterministically" from
// "this worker failed to answer".
func (s *Server) handleClusterExecute(w http.ResponseWriter, r *http.Request) {
	var req cluster.ExecuteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	key, err := req.Point.Key()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.runPoint(req.Point, key))
}

// handleCacheGet serves the shared verdict store: a worker's cache
// miss consults it before simulating.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	res, ok := cacheLoad(s, key, decodePointResult)
	if !ok {
		writeError(w, http.StatusNotFound, "no cached verdict under %q", shortKey(key))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleCachePut accepts a worker's freshly computed verdict into the
// shared store (cross-node cache fill).
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	var res cluster.PointResult
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(&res); err != nil {
		writeError(w, http.StatusBadRequest, "decode result: %v", err)
		return
	}
	if res.Err != "" {
		writeError(w, http.StatusBadRequest, "failed verdicts are not cacheable")
		return
	}
	// A verdict computed for one point must never be served as another's.
	if res.Key != "" && res.Key != key {
		writeError(w, http.StatusBadRequest, "verdict key %q does not match path key %q", shortKey(res.Key), shortKey(key))
		return
	}
	s.storePoint(key, res)
	w.WriteHeader(http.StatusNoContent)
}

// runPoint resolves one point to a terminal result through the cache
// hierarchy: local store, then the coordinator's store (worker mode),
// then a fresh simulation — deduplicated across identical in-flight
// points and uploaded back to the coordinator. A restarted worker
// answers a replayed point from its disk cache without simulating.
func (s *Server) runPoint(p cluster.Point, key string) cluster.PointResult {
	if res, ok := cacheLoad(s, key, decodePointResult); ok {
		s.cacheHits.Inc()
		res.Cached = true
		return res
	}
	s.cacheMisses.Inc()
	if s.cfg.CoordinatorURL != "" {
		if res, ok := s.pointFetchRemote(key); ok {
			s.storePoint(key, res)
			res.Cached = true
			s.log.Info("point filled from coordinator store", "key", shortKey(key))
			return res
		}
	}
	v, _, shared := s.flight.Do("point:"+key, func() (any, error) {
		return s.computePoint(p, key), nil
	})
	res := v.(cluster.PointResult)
	if shared {
		res.Cached = true
		s.deduped.Inc()
		return res
	}
	if res.Err == "" {
		s.storePoint(key, res)
		if s.cfg.CoordinatorURL != "" {
			s.pointUploadRemote(key, res)
		}
	}
	return res
}

// storePoint caches a successful verdict under its key, stripped to the
// deterministic verdict fields: who computed it and how is dispatch
// metadata, not part of the answer. With caching off it stores nothing:
// no lookup would read it back.
func (s *Server) storePoint(key string, res cluster.PointResult) {
	if s.cache == nil {
		return
	}
	v := res.Verdict()
	v.Key = key
	if err := s.cacheStore(key, v, func() ([]byte, error) { return json.Marshal(v) }); err != nil {
		s.log.Warn("point verdict not stored", "key", shortKey(key), "err", err)
	}
}

// computePoint runs one point's verification sequentially under the
// panic guard, honouring the test seam. Failures ride inside the result.
func (s *Server) computePoint(p cluster.Point, key string) cluster.PointResult {
	runID := "point-" + shortKey(key)
	res := cluster.PointResult{Key: key}
	err := s.guard(runID, func() error {
		if s.cfg.executePoint != nil {
			res = s.cfg.executePoint(p, key)
			res.Key = key
			return nil
		}
		w, opts, err := p.Resolve()
		if err != nil {
			return err
		}
		rep, err := core.Verify(w, s.execOptions(opts, runID))
		if err != nil {
			return err
		}
		res.Summary = rep.Summary()
		if dg, err := report.BuildDigest(rep); err == nil {
			if data, err := dg.JSON(); err == nil {
				res.Digest = data
			}
		}
		return nil
	})
	if err != nil {
		return cluster.PointResult{Key: key, Err: err.Error()}
	}
	return res
}

// pointFetchRemote consults the coordinator's verdict store for key.
// Any failure — transport, 404, decode — is a miss; the worker just
// simulates.
func (s *Server) pointFetchRemote(key string) (cluster.PointResult, bool) {
	var res cluster.PointResult
	data, err := cluster.Call(context.TODO(), s.clusterHTTP, http.MethodGet, s.coordinatorCacheURL(key), nil)
	if err != nil || json.Unmarshal(data, &res) != nil || res.Err != "" {
		return cluster.PointResult{}, false
	}
	return res.Verdict(), true
}

// pointUploadRemote pushes a fresh verdict to the coordinator's store,
// best-effort: a worker that dies right after this upload has already
// made its result a cache hit for whoever inherits the shard.
func (s *Server) pointUploadRemote(key string, res cluster.PointResult) {
	if _, err := cluster.Call(context.TODO(), s.clusterHTTP, http.MethodPut, s.coordinatorCacheURL(key), res.Verdict()); err != nil {
		s.log.Warn("verdict upload to coordinator failed", "key", shortKey(key), "err", err)
	}
}

func (s *Server) coordinatorCacheURL(key string) string {
	return strings.TrimRight(s.cfg.CoordinatorURL, "/") + "/api/v1/cache/" + key
}

func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// dispatcher builds the batch dispatcher over this server's membership,
// executor, and degraded-local fallback, wiring the event hooks to the
// cluster telemetry.
func (s *Server) dispatcher(b *Batch) *cluster.Dispatcher {
	return &cluster.Dispatcher{
		Members:      s.members,
		Exec:         &cluster.HTTPExecutor{Client: s.clusterHTTP},
		Local:        func(_ context.Context, p cluster.Point, key string) cluster.PointResult { return s.runPoint(p, key) },
		ShardTimeout: s.cfg.ShardTimeout,
		HedgeAfter:   s.cfg.HedgeAfter,
		Logger:       s.log,
		OnReassign: func(key, from, to string) {
			s.shardReassign.Inc()
			s.mu.Lock()
			b.Reassigned++
			s.mu.Unlock()
		},
		OnHedge: func(key, primary, hedge string) {
			s.hedgedDispatch.Inc()
			s.mu.Lock()
			b.Hedged++
			s.mu.Unlock()
		},
	}
}
