package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sort"
	"testing"

	"microsampler/internal/core"
	"microsampler/internal/sim"
	"microsampler/internal/trace"
	"microsampler/internal/workloads"
)

// TestUnitEvidenceGolden pins the per-unit evidence the collector
// produces, one layer below the verdicts: per unit the sample count and
// per-iteration snapshot hashes, every provenance stream, and the
// store-writer/load-reader attribution maps. The digests were captured
// before the unit definitions were consolidated into one table, so any
// drift in a unit's row, PC attribution, value keying or run encoding
// fails here even when the verdicts happen to survive it. Each case runs
// twice, recording provenance during the runs and rebuilding it by
// replay, and both must match the one digest.
func TestUnitEvidenceGolden(t *testing.T) {
	cases := []struct {
		workload, where string
		cfg             sim.Config
		digest          string
	}{
		{"ME-V1-MV", "MegaBoom", sim.MegaBoom(),
			"30b41a13860735250cc7ca8c50578f97be94b4f749b33a2cb467e11ef1cebbe4"},
		{"CT-DIV", "MegaBoom", sim.MegaBoom(),
			"f8f71affc145866efc23dc5a8b782a30434813ec6c642d3f3bce3230da34d25f"},
		{"TAGE-HIST", "predictor=tage", gridCellConfig(t, "predictor=tage"),
			"a45f840833cd14096a41d37cc32777edf8d9fec98c1f9c793a4288a3ec699eca"},
		{"SPF-STREAM", "prefetch=stride", gridCellConfig(t, "prefetch=stride"),
			"50a3359d0ce58ea51c91ebaff61ffff146a993eeca6f6a5d5364eba696f9fc2e"},
	}
	streams := map[trace.Unit]int{}
	for _, tc := range cases {
		w, err := workloads.ByName(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		for _, inRun := range []bool{true, false} {
			rep, err := core.Verify(w, core.Options{Runs: 2, Config: tc.cfg, Provenance: inRun})
			if err != nil {
				t.Fatalf("%s: %v", tc.workload, err)
			}
			if err := rep.LoadProvenance(); err != nil {
				t.Fatalf("%s: %v", tc.workload, err)
			}
			if got := evidenceDigest(rep); got != tc.digest {
				t.Errorf("%s on %s (in-run provenance %v): evidence digest %s, want %s",
					tc.workload, tc.where, inRun, got, tc.digest)
			}
			for _, up := range rep.Provenance {
				streams[up.Unit] += len(up.Streams)
			}
		}
	}
	// Every unit whose events carry a key must be exercised by some case,
	// so that no row of the unit table goes unchecked.
	for _, u := range trace.AllUnits() {
		if u == trace.ROBOCPNCY || u == trace.LFBDATA {
			continue
		}
		if streams[u] == 0 {
			t.Errorf("%s: no provenance stream in any case", u)
		}
	}
}

// TestEventViewGolden pins the timing-free event view that
// TestUnitEvidenceGolden leaves out: per unit, the NoTiming store's
// entries in first-seen order with their hash and per-class counts. The
// event view is derived from the per-cycle row diff, so a sampling
// shortcut that drops or duplicates an event changes these digests even
// when the timed snapshots and provenance streams survive it. The
// digests were captured before the sampling hot path was optimised.
func TestEventViewGolden(t *testing.T) {
	cases := []struct {
		workload, where string
		cfg             sim.Config
		digest          string
	}{
		{"ME-V1-MV", "MegaBoom", sim.MegaBoom(),
			"f136ed7d7a52ae635a130071e2334cc02f7a8b8e7cff1cf4b700e738e18ac06b"},
		{"CT-DIV", "MegaBoom", sim.MegaBoom(),
			"ad54f214b00becbb5f65ba418c04ab0830818c219b5f3340fda76fada17c60cc"},
		{"TAGE-HIST", "predictor=tage", gridCellConfig(t, "predictor=tage"),
			"f40c8554fa92877bec8fda3f2320b4e4a6e03da6b5844cef93d5fd4b765beb14"},
		{"SPF-STREAM", "prefetch=stride", gridCellConfig(t, "prefetch=stride"),
			"9408585a19994907b45ceb91e72040b8e2506c434ab959e4ac4ce6994cc338c2"},
	}
	for _, tc := range cases {
		w, err := workloads.ByName(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.Verify(w, core.Options{Runs: 2, Config: tc.cfg})
		if err != nil {
			t.Fatalf("%s: %v", tc.workload, err)
		}
		h := sha256.New()
		for _, ur := range rep.Units {
			writeStr(h, ur.Unit.String())
			entries := ur.StoreNoTiming.Entries()
			writeU64(h, uint64(len(entries)))
			for _, e := range entries {
				writeU64(h, e.Hash)
				classes := make([]uint64, 0, len(e.CountByClass))
				for c := range e.CountByClass {
					classes = append(classes, c)
				}
				sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
				for _, c := range classes {
					writeU64(h, c)
					writeU64(h, uint64(e.CountByClass[c]))
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
			t.Errorf("%s on %s: event-view digest %s, want %s", tc.workload, tc.where, got, tc.digest)
		}
	}
}

// gridCellConfig returns the simulator configuration of a one-cell grid
// spec such as "predictor=tage".
func gridCellConfig(t *testing.T, spec string) sim.Config {
	t.Helper()
	g, err := core.ParseGridSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := g.Cells()[0].Config()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// evidenceDigest hashes a report's per-unit evidence in a fixed order.
func evidenceDigest(rep *core.Report) string {
	h := sha256.New()
	for _, ur := range rep.Units {
		u := ur.Unit
		writeStr(h, u.String())
		writeU64(h, rep.Samples[u])
		writeU64s(h, rep.IterHashes[u])
	}
	for _, up := range rep.Provenance {
		writeStr(h, up.Unit.String())
		for _, s := range up.Streams {
			writeU64(h, s.Key)
			writeU64(h, s.Events)
			writeU64(h, uint64(len(s.Iters)))
			for _, it := range s.Iters {
				writeU64(h, uint64(it))
			}
			writeU64s(h, s.Hashes)
		}
	}
	writeAttribution(h, "writers", rep.StoreWriters)
	writeAttribution(h, "readers", rep.LoadReaders)
	return hex.EncodeToString(h.Sum(nil))
}

func writeAttribution(h hash.Hash, label string, m map[uint64][]uint64) {
	writeStr(h, label)
	addrs := make([]uint64, 0, len(m))
	for a := range m {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		writeU64(h, a)
		writeU64s(h, m[a])
	}
}

func writeStr(h hash.Hash, s string) {
	writeU64(h, uint64(len(s)))
	h.Write([]byte(s))
}

func writeU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func writeU64s(h hash.Hash, vs []uint64) {
	writeU64(h, uint64(len(vs)))
	for _, v := range vs {
		writeU64(h, v)
	}
}
