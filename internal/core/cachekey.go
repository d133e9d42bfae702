package core

import (
	"fmt"
	"reflect"

	"microsampler/internal/cache"
)

// Content-addressed verification keys. A verification is a pure
// function of (program bytes, machine configuration, seed range,
// detection-relevant options) — the calibration gate proves
// byte-identical output across runs — so a canonical SHA-256 of that
// tuple names the result: two submissions with the same key would
// simulate to the same report, whatever the parallelism, retry policy
// or telemetry wiring of either.
//
// Detection-relevant fields are hashed; execution-strategy fields
// (Parallel, Retry, RunTimeout, Watchdog, probes, sinks,
// loggers) are deliberately not — they change how the answer is
// computed, never what it is. MeasureStages is hashed because it
// changes the report's stage breakdown contents.

// verifyCacheKeySchema versions the key layout: bump it when the set of
// hashed fields changes, so stale caches miss instead of serving
// results keyed under the old tuple.
const verifyCacheKeySchema = "microsampler-verify-v1"

// CacheKey returns the canonical content-addressed key of a
// verification: identical (program, config, seed range,
// detection-relevant options) tuples — including tuples that differ
// only in defaulted fields — share a key; any change to a hashed field
// produces a different one. The workload's Setup function cannot be
// hashed; it is assumed to be determined by the workload name (true for
// the built-in corpus and for raw submitted sources, which have no
// Setup).
func CacheKey(w Workload, opts Options) (string, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return "", err
	}
	return cacheKeyWithDefaults(w, o), nil
}

// MatrixCacheKey is CacheKey for a grid sweep: the per-workload tuple
// combined with the canonical cell enumeration of the grid, so
// equivalent specs (reordered axes) share a key and any cell-set change
// produces a different one. CellParallel is execution strategy and not
// hashed.
func MatrixCacheKey(w Workload, opts MatrixOptions) (string, error) {
	grid := opts.Grid
	if len(grid.Axes) == 0 {
		grid = DefaultGrid()
	}
	if err := grid.Validate(); err != nil {
		return "", err
	}
	o, err := opts.Options.withDefaults()
	if err != nil {
		return "", err
	}
	h := cache.NewHasher()
	h.Str("schema", "microsampler-matrix-v1")
	h.Str("base", cacheKeyWithDefaults(w, o))
	for _, c := range grid.Cells() {
		h.Str("cell", c.Name)
	}
	return h.Sum(), nil
}

// cacheKeyWithDefaults hashes the detection-relevant tuple of a
// defaults-applied Options. Callers must have run withDefaults first,
// so explicitly spelling out a default hashes identically to omitting
// it.
func cacheKeyWithDefaults(w Workload, o Options) string {
	h := cache.NewHasher()
	h.Str("schema", verifyCacheKeySchema)
	h.Str("workload", w.Name)
	h.Str("source", w.Source)
	h.Bool("setup", w.Setup != nil)
	hashConfig(h, o.Config)
	h.Int("runs", int64(o.Runs))
	h.Int("warmup", int64(o.Warmup))
	h.Int("maxcycles", o.MaxCycles)
	h.Int("seedoffset", int64(o.SeedOffset))
	h.Bool("measurestages", o.MeasureStages)
	h.Int("nunits", int64(len(o.Units)))
	for _, u := range o.Units {
		h.Str("unit", u.String())
	}
	return h.Sum()
}

// hashConfig hashes every field of a sim.Config by reflection, so a
// configuration field added to the simulator is hashed the day it
// exists instead of silently aliasing configs that differ in it.
func hashConfig(h *cache.Hasher, cfg any) {
	v := reflect.ValueOf(cfg)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		name := "cfg." + t.Field(i).Name
		switch fv := v.Field(i); fv.Kind() {
		case reflect.String:
			h.Str(name, fv.String())
		case reflect.Bool:
			h.Bool(name, fv.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			h.Int(name, fv.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			h.Uint(name, fv.Uint())
		default:
			// Conservative fallback: no silent omission of a field the
			// fast paths above do not cover.
			h.Str(name, fmt.Sprintf("%v", fv.Interface()))
		}
	}
}
