package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of ascending xs,
// interpolating linearly between the two closest ranks.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// rtSnap is a reading of the Go runtime's cumulative GC and allocation
// counters.
type rtSnap struct {
	gcCPU, totalCPU, allocBytes, allocObjects float64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		}
	}
	return rtSnap{v[0], v[1], v[2], v[3]}
}

func (a rtSnap) sub(b rtSnap) rtSnap {
	return rtSnap{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects}
}

func (a rtSnap) add(b rtSnap) rtSnap {
	return rtSnap{a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU, a.allocBytes + b.allocBytes, a.allocObjects + b.allocObjects}
}

// metrics renders a runtime delta as the runtime.* per-layer metrics.
func (a rtSnap) metrics(verdicts int) map[string]metric {
	v := math.Max(float64(verdicts), 1)
	return map[string]metric{
		"runtime.gc_cpu_frac":             {ratio(a.gcCPU, a.totalCPU), "frac"},
		"runtime.alloc_bytes_per_verdict": {a.allocBytes / v, "B/verdict"},
		"runtime.allocs_per_verdict":      {a.allocObjects / v, "1/verdict"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hostRecord is the noise context of one run, printed on stderr so that
// an outlier can be explained: load average, CPU steal over the run, the
// scheduler width and the toolchain.
type hostRecord struct {
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Traced     bool       `json:"traced"`
	Ops        int        `json:"ops"`
	Failed     int        `json:"failed"`
	Verdicts   int        `json:"verdicts"`
	WallS      float64    `json:"wall_s"`
	SetupS     []float64  `json:"setup_s"`
	LoadAvg    [3]float64 `json:"loadavg"`
	StealFrac  float64    `json:"steal_frac"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	NumCPU     int        `json:"numcpu"`
	GoVersion  string     `json:"go"`
}

type hostStart struct{ steal, total float64 }

func startHost() hostStart {
	s, t := cpuStat()
	return hostStart{s, t}
}

func (h hostStart) finish(name string, o runOpts, ops, failed, verdicts int, wall time.Duration, setups []float64) hostRecord {
	s, t := cpuStat()
	rec := hostRecord{
		Workload: name, Seed: o.seed, Traced: o.traced, Ops: ops, Failed: failed, Verdicts: verdicts,
		WallS: wall.Seconds(), SetupS: setups,
		StealFrac:  ratio(s-h.steal, t-h.total),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		f := strings.Fields(string(data))
		for i := 0; i < 3 && i < len(f); i++ {
			rec.LoadAvg[i], _ = strconv.ParseFloat(f[i], 64)
		}
	}
	return rec
}

// cpuStat returns the steal and total jiffies of the aggregate "cpu"
// line of /proc/stat (zeros where it cannot be read).
func cpuStat() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		// Fields 9 and 10 (guest time) are already counted in user time.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// counts are the exact work counts of a traced run's count window (the
// first deck): a deterministic program on a fixed seed must reproduce
// them exactly.
type counts struct {
	SimCycles   int64 `json:"sim.cycles"`
	TraceRows   int64 `json:"trace.rows"`
	Unique      int64 `json:"snapshot.unique"`
	TableCols   int64 `json:"stats.table_cols"`
	ReportBytes int64 `json:"report.bytes"`
}

func (c counts) String() string {
	data, _ := json.Marshal(c)
	return string(data)
}

func (c counts) metrics() map[string]metric {
	return map[string]metric{
		"sim.cycles":       {float64(c.SimCycles), "count"},
		"trace.rows":       {float64(c.TraceRows), "count"},
		"snapshot.unique":  {float64(c.Unique), "count"},
		"stats.table_cols": {float64(c.TableCols), "count"},
		"report.bytes":     {float64(c.ReportBytes), "count"},
	}
}

// check compares the counts with those an earlier run of the same
// binary recorded for the same workload and seed, under the directory
// named by PERFBENCH_STATE, and records them when no such run exists.
// Without PERFBENCH_STATE there is nothing to compare against.
func (c counts) check(workload string, seed int64) error {
	dir := os.Getenv("PERFBENCH_STATE")
	if dir == "" {
		return nil
	}
	id, err := binaryID()
	if err != nil {
		return fmt.Errorf("exact counts: %w", err)
	}
	path := filepath.Join(dir, "counts", fmt.Sprintf("%s-%d-%s.json", workload, seed, id))
	now := []byte(c.String())
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if !bytes.Equal(prev, now) {
			return fmt.Errorf("exact counts %s differ from an earlier run with seed %d: %s", now, seed, prev)
		}
		return nil
	case !os.IsNotExist(err):
		return fmt.Errorf("exact counts: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("exact counts: %w", err)
	}
	return os.WriteFile(path, now, 0o644)
}

// binaryID hashes the running executable, so that recorded counts are
// only ever compared against runs of identical code.
func binaryID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
