package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"sort"
	"testing"

	"microsampler/internal/core"
	"microsampler/internal/features"
	"microsampler/internal/sim"
	"microsampler/internal/workloads"
)

// TestUniqueFeaturesGolden pins the uniqueness features of every
// catalogue kernel on MegaBoom and SmallBoom at two runs: per unit, both
// features.Uniqueness over the unit's timed store (whether or not the
// unit is flagged) and the report's UniqueFeatures. Uniqueness reads
// only the set of non-zero values each class's representatives hold,
// so a change to what a store keeps as an entry's representative must
// leave these digests alone.
func TestUniqueFeaturesGolden(t *testing.T) {
	cases := []struct {
		cfg    sim.Config
		digest string
	}{
		{sim.MegaBoom(), "ca9d889a2eec92f5ae051ea34ed5c5029fbf9d72c4e74d567dec11319c97b5a4"},
		{sim.SmallBoom(), "ec01b18780b73d2ffedd30408448f53bffc332542a4098574cecf34022193342"},
	}
	for _, tc := range cases {
		t.Run(tc.cfg.Name, func(t *testing.T) {
			t.Parallel()
			h := sha256.New()
			withValues := 0
			for _, name := range workloads.Names() {
				w, err := workloads.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := core.Verify(w, core.Options{Runs: 2, Config: tc.cfg})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				writeStr(h, name)
				for _, ur := range rep.Units {
					writeStr(h, ur.Unit.String())
					writeClassValues(h, features.Uniqueness(ur.Store))
					writeClassValues(h, ur.UniqueFeatures)
					for _, vs := range ur.UniqueFeatures {
						if len(vs) > 0 {
							withValues++
							break
						}
					}
				}
			}
			if withValues == 0 {
				t.Fatal("no unit of any kernel has unique features")
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
				t.Errorf("unique-features digest %s, want %s", got, tc.digest)
			}
		})
	}
}

// writeClassValues hashes a per-class value map with classes ascending;
// a nil map and an empty one hash alike.
func writeClassValues(h hash.Hash, m map[uint64][]uint64) {
	classes := make([]uint64, 0, len(m))
	for c := range m {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	writeU64(h, uint64(len(classes)))
	for _, c := range classes {
		writeU64(h, c)
		writeU64s(h, m[c])
	}
}
