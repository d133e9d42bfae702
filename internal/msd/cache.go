package msd

import (
	"encoding/json"
	"fmt"

	"microsampler/internal/cache"
	"microsampler/internal/cluster"
	"microsampler/internal/core"
)

// Content-addressed job cache. Verification is deterministic, so a
// job's full artifact set is a pure function of (program, config, seed
// range, detection-relevant options, artifact parameters); two
// submissions with the same key are served the same rendered bytes.
// The in-memory LRU holds recent verdicts; Config.CacheDir adds an
// fsync'd disk layer colocated with the journal that survives
// restarts.

// jobCacheKey returns the content-addressed key of a job request's
// artifact set, or "" when the request cannot be keyed (an invalid
// request never reaches the cache — submit validates first — so ""
// only means "do not cache"). maxCycles is the daemon's per-run bound,
// part of the key because it can truncate simulations. A report job's
// base is its point's core.CacheKey, the key a batch point of the same
// tuple gets.
func jobCacheKey(req JobRequest, maxCycles int64) string {
	w, opts, grid, err := req.resolve()
	if err != nil {
		return ""
	}
	opts.MaxCycles = maxCycles
	var base string
	if req.Matrix != "" {
		base, err = core.MatrixCacheKey(w, core.MatrixOptions{Options: opts, Grid: grid})
	} else {
		base, err = core.CacheKey(w, opts)
	}
	if err != nil {
		return ""
	}
	// The rendered artifacts depend on the heatmap windowing on top of
	// the verification tuple.
	h := cache.NewHasher()
	h.Str("schema", "msd-job-v1")
	h.Str("base", base)
	h.Int("heatmapWindows", int64(req.HeatmapWindows))
	return h.Sum()
}

// cachedJob is one cache entry: the full artifact set plus the verdict
// summary, everything a hit needs to finish a job without simulating.
type cachedJob struct {
	arts map[string]artifact
	sum  jobSummary
}

// cachedJobWire is cachedJob's disk encoding. Artifact data rides as
// base64 via encoding/json's []byte handling.
type cachedJobWire struct {
	Leaky      bool                    `json:"leaky"`
	LeakyUnits []string                `json:"leakyUnits,omitempty"`
	Iterations int                     `json:"iterations,omitempty"`
	SimCycles  int64                   `json:"simCycles,omitempty"`
	Cells      int                     `json:"cells,omitempty"`
	LeakyCells []string                `json:"leakyCells,omitempty"`
	Artifacts  map[string]wireArtifact `json:"artifacts"`
}

type wireArtifact struct {
	ContentType string `json:"contentType"`
	Data        []byte `json:"data"`
}

func (cj *cachedJob) encode() ([]byte, error) {
	w := cachedJobWire{
		Leaky:      cj.sum.leaky,
		LeakyUnits: cj.sum.leakyUnits,
		Iterations: cj.sum.iterations,
		SimCycles:  cj.sum.simCycles,
		Cells:      cj.sum.cells,
		LeakyCells: cj.sum.leakyCells,
		Artifacts:  make(map[string]wireArtifact, len(cj.arts)),
	}
	for name, art := range cj.arts {
		w.Artifacts[name] = wireArtifact{ContentType: art.contentType, Data: art.data}
	}
	return json.Marshal(w)
}

func decodeCachedJob(data []byte) (*cachedJob, error) {
	var w cachedJobWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("msd: decode cached job: %w", err)
	}
	cj := &cachedJob{
		arts: make(map[string]artifact, len(w.Artifacts)),
		sum: jobSummary{
			leaky: w.Leaky, leakyUnits: w.LeakyUnits,
			iterations: w.Iterations, simCycles: w.SimCycles,
			cells: w.Cells, leakyCells: w.LeakyCells,
		},
	}
	for name, art := range w.Artifacts {
		cj.arts[name] = artifact{contentType: art.ContentType, data: art.Data}
	}
	return cj, nil
}

// decodePointResult decodes a point verdict's disk encoding.
func decodePointResult(data []byte) (cluster.PointResult, error) {
	var res cluster.PointResult
	err := json.Unmarshal(data, &res)
	return res.Verdict(), err
}

// cacheLoad looks key up in the memory layer, then the disk layer,
// promoting a disk hit into memory. Job artifact sets and point verdicts
// share both layers under disjoint key spaces ("msd-job-v1" hashes
// versus core.CacheKey); the checked assertion keeps an entry from ever
// masquerading as the other kind. A corrupt disk blob is a miss — the
// work simply re-verifies and overwrites it.
func cacheLoad[T any](s *Server, key string, decode func([]byte) (T, error)) (T, bool) {
	var zero T
	if s.cache == nil || key == "" {
		return zero, false
	}
	if v, ok := s.cache.Get(key); ok {
		t, ok := v.(T)
		return t, ok
	}
	if s.cacheDisk == nil {
		return zero, false
	}
	data, ok, err := s.cacheDisk.Get(key)
	if err != nil {
		s.log.Warn("cache disk read failed", "key", shortKey(key), "err", err)
	}
	if err != nil || !ok {
		return zero, false
	}
	t, err := decode(data)
	if err != nil {
		s.log.Warn("cache disk blob corrupt", "key", shortKey(key), "err", err)
		return zero, false
	}
	s.cache.Put(key, t)
	return t, true
}

// cacheStore puts v in the memory layer and its encoding in the disk
// layer. Disk failures degrade to memory-only caching.
func (s *Server) cacheStore(key string, v any, encode func() ([]byte, error)) {
	if s.cache == nil || key == "" {
		return
	}
	s.cache.Put(key, v)
	if s.cacheDisk == nil {
		return
	}
	data, err := encode()
	if err == nil {
		err = s.cacheDisk.Put(key, data)
	}
	if err != nil {
		s.log.Warn("cache disk write failed", "key", shortKey(key), "err", err)
	}
}
