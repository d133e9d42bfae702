// Package cluster is the distributed-verification substrate behind the
// msd coordinator/worker topology: rendezvous sharding of verification
// points across a heartbeat-tracked worker set, dispatch with per-shard
// timeouts, full-jitter retry, death-driven reassignment and hedged
// duplicates for stragglers, and graceful degradation to local
// execution when no worker is healthy. The package is transport- and
// daemon-agnostic: internal/msd supplies the HTTP executor, the local
// fallback and the verdict cache; everything here is deterministic
// given the same membership events, which is what lets the chaos tests
// assert byte-identical verdicts against a single-node run.
package cluster

import (
	"cmp"
	"fmt"
	"strings"

	"microsampler/internal/core"
	"microsampler/internal/sim"
	"microsampler/internal/workloads"
)

// Point is one program×configuration verification point of a batch —
// the unit of work the coordinator shards across workers. It is
// self-contained on the wire: a worker can resolve it to a
// (core.Workload, core.Options) pair without any batch context.
type Point struct {
	// Exactly one of Workload (built-in case-study name) or Source (raw
	// RV64 assembly) names the program.
	Workload string `json:"workload,omitempty"`
	Source   string `json:"source,omitempty"`

	// Cell pins the microarchitecture to one grid cell by its canonical
	// "axis=value,..." name (core.Cell). When set, Config and FastBypass
	// are ignored — the cell defines the configuration.
	Cell string `json:"cell,omitempty"`
	// Config selects the simulated core when Cell is empty: "mega"
	// (default) or "small".
	Config     string `json:"config,omitempty"`
	FastBypass bool   `json:"fastBypass,omitempty"`

	Runs          int  `json:"runs,omitempty"`   // default 4
	Warmup        int  `json:"warmup,omitempty"` // 0: framework default, <0: keep all
	SeedOffset    int  `json:"seedOffset,omitempty"`
	MeasureStages bool `json:"measureStages,omitempty"`

	// Label is execution metadata for the worker's history store; it
	// never enters the cache key.
	Label string `json:"label,omitempty"`
}

// ParseCell decodes a canonical "axis=value,axis=value" cell name into
// a core.Cell, validating every axis and value against the grid
// vocabulary (via Cell.Config).
func ParseCell(name string) (core.Cell, error) {
	c := core.Cell{Name: name}
	for _, part := range strings.Split(name, ",") {
		axis, value, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || axis == "" || value == "" {
			return core.Cell{}, fmt.Errorf("cluster: cell %q: want axis=value pairs", name)
		}
		c.Axes = append(c.Axes, axis)
		c.Values = append(c.Values, value)
	}
	if _, err := c.Config(); err != nil {
		return core.Cell{}, err
	}
	return c, nil
}

// maxRuns bounds Point.Runs: each run is a full simulation, so the
// bound keeps one request from pinning a daemon for hours.
const maxRuns = 1024

// Resolve materialises the point into the workload and options its
// verification runs with, and is the one place a request's defaults
// and bounds live: runs default to 4 and must lie in [0,1024], and the
// configuration comes from the cell or sim.ConfigByName. Warmup passes
// through: core.Options applies its own default and maps any negative
// value to "keep all". Execution-strategy options (parallelism,
// retries, telemetry) are the executing daemon's business and are left
// zero.
func (p Point) Resolve() (core.Workload, core.Options, error) {
	var w core.Workload
	var err error
	switch {
	case (p.Workload == "") == (p.Source == ""):
		return w, core.Options{}, fmt.Errorf("exactly one of workload or source is required")
	case p.Workload != "":
		if w, err = workloads.ByName(p.Workload); err != nil {
			return w, core.Options{}, err
		}
	default:
		w = core.Workload{Name: "submitted-source", Source: p.Source}
	}
	if p.Runs < 0 || p.Runs > maxRuns {
		return w, core.Options{}, fmt.Errorf("runs must be in [0,%d], got %d", maxRuns, p.Runs)
	}

	var cfg sim.Config
	if p.Cell != "" {
		cell, err := ParseCell(p.Cell)
		if err != nil {
			return w, core.Options{}, err
		}
		if cfg, err = cell.Config(); err != nil {
			return w, core.Options{}, err
		}
	} else {
		if cfg, err = sim.ConfigByName(p.Config); err != nil {
			return w, core.Options{}, err
		}
		cfg.FastBypass = p.FastBypass
	}
	return w, core.Options{
		Config:        cfg,
		Runs:          cmp.Or(p.Runs, 4),
		Warmup:        p.Warmup,
		SeedOffset:    p.SeedOffset,
		MeasureStages: p.MeasureStages,
	}, nil
}

// Key returns the point's canonical content-addressed cache key — the
// same core.CacheKey a single-node verification of the identical tuple
// would use, which is exactly what makes cross-node cache fill and
// reassignment dedup sound. maxCycles is the executing daemon's per-run
// bound (part of the verification tuple).
func (p Point) Key(maxCycles int64) (string, error) {
	w, opts, err := p.Resolve()
	if err != nil {
		return "", err
	}
	opts.MaxCycles = maxCycles
	return core.CacheKey(w, opts)
}

// WorkloadName is the point's display name.
func (p Point) WorkloadName() string {
	if p.Workload != "" {
		return p.Workload
	}
	return "submitted-source"
}

// PointResult is one point's terminal outcome. The verdict fields
// (Leaky through Digest, plus Err) are a pure function of the point —
// deterministic simulation — while the execution-metadata fields
// (Cached, Worker, Degraded) describe how this particular dispatch got
// the answer and never enter the cache.
type PointResult struct {
	Key string `json:"key"`

	Leaky      bool     `json:"leaky"`
	LeakyUnits []string `json:"leakyUnits,omitempty"`
	Iterations int      `json:"iterations,omitempty"`
	SimCycles  int64    `json:"simCycles,omitempty"`
	// Digest is the diffable report digest (report.ReportDigest JSON),
	// carried verbatim so verdict identity is byte-checkable.
	Digest []byte `json:"digest,omitempty"`
	// Err records a failed point — assembly error, simulation fault —
	// without failing the batch, mirroring core.CellResult.Err.
	Err string `json:"error,omitempty"`

	// Cached marks a verdict served from a cache layer (local, remote
	// fill, or in-flight dedup) instead of a fresh simulation.
	Cached bool `json:"cached,omitempty"`
	// Worker is the ID of the worker that answered ("" for local).
	Worker string `json:"worker,omitempty"`
	// Degraded marks a point the coordinator executed locally because no
	// worker was healthy (or every remote attempt failed).
	Degraded bool `json:"degraded,omitempty"`
}

// Verdict returns the deterministic verdict-only view of the result —
// execution metadata stripped — which is the unit the chaos tests
// compare byte-for-byte against a single-node run.
func (r PointResult) Verdict() PointResult {
	r.Cached = false
	r.Worker = ""
	r.Degraded = false
	return r
}
