package msd

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"microsampler/internal/cache"
	"microsampler/internal/cluster"
	"microsampler/internal/core"
	"microsampler/internal/telemetry/export"
)

// The verdict store. Verification is deterministic, so a job's full
// artifact set is a pure function of (program, config, seed range,
// detection-relevant options, artifact parameters); two submissions
// with the same key are served the same rendered bytes. The in-memory
// LRU holds recent verdicts; the fsync'd disk layer survives restarts
// and is the only durable home of a journaled job's artifacts.

// cacheKey returns the content-addressed key of an admitted job's
// artifact set, from the request it resolved at admission. A report
// job's base is its point's core.CacheKey, the key a batch point of the
// same tuple gets. Every resolved request has one: Point.Resolve and
// core.ParseGridSpec reject each request either key function refuses.
func (j *Job) cacheKey() string {
	var base string
	var err error
	if j.Req.Matrix != "" {
		base, err = core.MatrixCacheKey(j.w, core.MatrixOptions{Options: j.opts, Grid: j.grid})
	} else {
		base, err = core.CacheKey(j.w, j.opts)
	}
	if err != nil {
		panic(fmt.Sprintf("msd: resolved request has no cache key: %v", err))
	}
	// The rendered artifacts depend on the heatmap windowing on top of
	// the verification tuple.
	h := cache.NewHasher()
	h.Str("schema", "msd-job-v1")
	h.Str("base", base)
	h.Int("heatmapWindows", int64(j.Req.HeatmapWindows))
	return h.Sum()
}

// cachedJob is one cache entry: the full artifact set plus the verdict
// summary, everything a hit needs to finish a job without simulating.
type cachedJob struct {
	arts map[string]artifact
	sum  core.Summary
}

// cachedJobWire is cachedJob's disk encoding. Artifact data rides as
// base64 via encoding/json's []byte handling.
type cachedJobWire struct {
	core.Summary
	Artifacts map[string]wireArtifact `json:"artifacts"`
}

type wireArtifact struct {
	ContentType string `json:"contentType"`
	Data        []byte `json:"data"`
}

func (cj *cachedJob) encode() ([]byte, error) {
	w := cachedJobWire{Summary: cj.sum, Artifacts: make(map[string]wireArtifact, len(cj.arts))}
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
	cj := &cachedJob{arts: make(map[string]artifact, len(w.Artifacts)), sum: w.Summary}
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
// promoting a disk hit into memory; with no memory layer caching is off
// and every lookup misses. Job artifact sets and point verdicts share
// both layers under disjoint key spaces ("msd-job-v1" hashes versus
// core.CacheKey); the checked assertion keeps an entry from ever
// masquerading as the other kind. A corrupt disk blob is a miss — the
// work simply re-verifies and overwrites it.
func cacheLoad[T any](s *Server, key string, decode func([]byte) (T, error)) (T, bool) {
	var zero T
	if s.cache == nil {
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

// cacheStore files v's encoding in the disk layer, then v in the memory
// layer. On a journaled daemon a failed disk write is returned and v
// stays out of memory, since a journal record may name only a blob on
// disk; without a journal it degrades to memory-only caching.
func (s *Server) cacheStore(key string, v any, encode func() ([]byte, error)) error {
	if s.cacheDisk != nil {
		data, err := encode()
		if err == nil {
			err = s.cacheDisk.Put(key, data)
		}
		if err != nil && s.jrn != nil {
			return fmt.Errorf("persist artifacts: %w", err)
		}
		if err != nil {
			s.log.Warn("cache disk write failed", "key", shortKey(key), "err", err)
		}
	}
	if s.cache != nil {
		s.cache.Put(key, v)
	}
	return nil
}

// postmortem renders the flight-recorder dump a failed job's error
// carries (nil when none) as a Perfetto counter trace. A journaled
// daemon files it in the disk layer under the hash of its encoding and
// returns that key ("" when it is not stored).
func (s *Server) postmortem(runID string, failure error) (*cachedJob, string) {
	dump, ok := core.FlightDumpFromError(failure)
	if !ok {
		return nil, ""
	}
	data, err := export.FlightPerfetto(dump).JSON()
	if err != nil {
		return nil, ""
	}
	pm := &cachedJob{arts: map[string]artifact{"postmortem": {"application/json", data}}}
	if s.jrn == nil {
		return pm, ""
	}
	blob, err := pm.encode()
	key := fmt.Sprintf("%x", sha256.Sum256(blob))
	if err == nil {
		err = s.cacheDisk.Put(key, blob)
	}
	if err != nil {
		s.log.Warn("postmortem not persisted", "run_id", runID, "err", err)
		return pm, ""
	}
	return pm, key
}

// loadStored reads back the artifacts a recovered terminal job's record
// names: the blob under its key or, for a keyless record, the job's
// jobs/<id>/ directory.
func (s *Server) loadStored(j *Job) (map[string]artifact, error) {
	if j.key == "" {
		return s.jrn.loadArtifacts(j.ID)
	}
	data, ok, err := s.cacheDisk.Get(j.key)
	if err == nil && !ok {
		err = fmt.Errorf("msd: no blob under key %s", shortKey(j.key))
	}
	if err != nil {
		return nil, err
	}
	cj, err := decodeCachedJob(data)
	if err != nil {
		return nil, err
	}
	return cj.arts, nil
}
