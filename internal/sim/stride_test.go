package sim

import "testing"

// ---------------------------------------------------------------------
// Stride prefetcher

func strideCfg() Config {
	cfg := MegaBoom()
	cfg.NextLinePrefetcher = false
	cfg.StridePrefetcher = true
	return cfg
}

// TestStridePrefetcherDetectsStream drives a constant-stride stream from
// one PC and checks the prefetcher locks on and runs one stride ahead,
// forward or backward.
func TestStridePrefetcherDetectsStream(t *testing.T) {
	cases := []struct {
		name   string
		start  uint64
		stride int64
	}{
		{"forward-line", 0x10000, 64},
		{"backward-line", 0x20000, -64},
		{"forward-2lines", 0x30000, 128},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newDCache(strideCfg(), NewMemory())
			pc := uint64(0x44)
			now := int64(0)
			addr := tc.start
			for i := 0; i < 5; i++ {
				d.tick(now)
				if _, ok := d.access(now, addr, pc); !ok {
					t.Fatalf("access %d rejected", i)
				}
				now += 50
				if i < 4 {
					addr = uint64(int64(addr) + tc.stride)
				}
			}
			if d.trackers[pfSPF].issued == 0 {
				t.Fatal("no stride prefetch issued")
			}
			want := d.lineOf(uint64(int64(addr) + tc.stride))
			found := false
			for _, m := range d.trackers[pfSPF].slots {
				if m.lineAddr == want {
					found = true
				}
			}
			if !found {
				// The tracker may already have drained; the line must
				// then be resident and tagged as an SPF fill.
				if !d.cache.present(want) {
					t.Fatalf("no prefetch of line %#x (one stride ahead)", want)
				}
			}
		})
	}
}

func TestStridePrefetchUsefulCounters(t *testing.T) {
	d := newDCache(strideCfg(), NewMemory())
	pc := uint64(0x80)
	now := int64(0)
	// Train to confidence 2: the 4th access prefetches addr+64.
	for _, addr := range []uint64{0x40000, 0x40040, 0x40080, 0x400C0} {
		d.tick(now)
		if _, ok := d.access(now, addr, pc); !ok {
			t.Fatal("access rejected")
		}
		now += 50
	}
	if d.trackers[pfSPF].issued != 1 {
		t.Fatalf("spfPrefetches = %d want 1", d.trackers[pfSPF].issued)
	}
	// After the fill retires, demanding the prefetched line counts it
	// useful exactly once.
	d.tick(now)
	if _, ok := d.access(now, 0x40100, pc); !ok {
		t.Fatal("demand of prefetched line rejected")
	}
	if d.trackers[pfSPF].useful != 1 {
		t.Errorf("spfUseful = %d want 1", d.trackers[pfSPF].useful)
	}
	if d.trackers[pfSPF].useless != 0 {
		t.Errorf("spfUseless = %d want 0", d.trackers[pfSPF].useless)
	}
}

func TestStridePrefetchInFlightPromotion(t *testing.T) {
	d := newDCache(strideCfg(), NewMemory())
	pc := uint64(0x80)
	now := int64(0)
	for _, addr := range []uint64{0x50000, 0x50040, 0x50080, 0x500C0} {
		d.tick(now)
		if _, ok := d.access(now, addr, pc); !ok {
			t.Fatal("access rejected")
		}
		now++ // keep the final prefetch in flight
	}
	// Demand the prefetch target while its fill is still outstanding.
	done, ok := d.access(now, 0x50100, pc)
	if !ok {
		t.Fatal("in-flight demand rejected")
	}
	if d.trackers[pfSPF].useful != 1 {
		t.Errorf("spfUseful = %d want 1 (promoted in flight)", d.trackers[pfSPF].useful)
	}
	if done <= now {
		t.Error("promoted access must still wait for the fill")
	}
}

func TestStridePrefetchUselessEviction(t *testing.T) {
	cfg := strideCfg()
	cfg.DCacheSets = 1 // every line maps to one set: easy to evict
	d := newDCache(cfg, NewMemory())
	pc := uint64(0x80)
	now := int64(0)
	for _, addr := range []uint64{0x60000, 0x60040, 0x60080, 0x600C0} {
		d.tick(now)
		if _, ok := d.access(now, addr, pc); !ok {
			t.Fatal("access rejected")
		}
		now += 50
	}
	if d.trackers[pfSPF].issued != 1 {
		t.Fatalf("spfPrefetches = %d want 1", d.trackers[pfSPF].issued)
	}
	d.tick(now) // retire the prefetch fill
	// Flood the set from unrelated PCs (each trains a cold stride slot,
	// never gaining confidence) until the prefetched line is evicted.
	for i := 0; i < 2*cfg.DCacheWays; i++ {
		d.tick(now)
		addr := 0x900000 + uint64(i)*64
		if _, ok := d.access(now, addr, 0x2000+uint64(i)*4); !ok {
			t.Fatalf("flood access %d rejected", i)
		}
		now += 50
	}
	d.tick(now)
	if d.trackers[pfSPF].useless != 1 {
		t.Errorf("spfUseless = %d want 1 (prefetched line evicted unused)", d.trackers[pfSPF].useless)
	}
	if d.trackers[pfSPF].useful != 0 {
		t.Errorf("spfUseful = %d want 0", d.trackers[pfSPF].useful)
	}
}

// TestStrideDisabledStaysCold ensures the model is fully gated: without
// the config toggle no table trains and no tracker goes valid, so the
// SPF-ADDR unit samples empty rows.
func TestStrideDisabledStaysCold(t *testing.T) {
	cfg := MegaBoom() // stride off
	d := newDCache(cfg, NewMemory())
	pc := uint64(0x80)
	now := int64(0)
	for _, addr := range []uint64{0x70000, 0x70040, 0x70080, 0x700C0, 0x70100} {
		d.tick(now)
		d.access(now, addr, pc)
		now += 50
	}
	if d.trackers[pfSPF].issued != 0 || d.trackers[pfSPF].useful != 0 || d.trackers[pfSPF].useless != 0 {
		t.Error("disabled stride prefetcher must keep zero counters")
	}
	for _, e := range d.stride {
		if e.valid {
			t.Fatal("disabled stride prefetcher must not train")
		}
	}
	for _, m := range d.trackers[pfSPF].slots {
		if m.valid {
			t.Fatal("disabled stride prefetcher must not issue")
		}
	}
}

func TestStrideConfidenceResetsOnNewPattern(t *testing.T) {
	d := newDCache(strideCfg(), NewMemory())
	pc := uint64(0x80)
	now := int64(0)
	run := func(addrs []uint64) {
		for _, a := range addrs {
			d.tick(now)
			d.access(now, a, pc)
			now += 50
		}
	}
	run([]uint64{0x80000, 0x80040, 0x80080, 0x800C0}) // conf reaches 2, one prefetch
	issued := d.trackers[pfSPF].issued
	if issued != 1 {
		t.Fatalf("spfPrefetches = %d want 1", issued)
	}
	// A stride change decays confidence below the prefetch threshold:
	// the immediately following irregular accesses must not prefetch.
	run([]uint64{0x90000, 0x90800, 0x91300})
	if d.trackers[pfSPF].issued != issued {
		t.Errorf("irregular stream issued %d extra prefetches", d.trackers[pfSPF].issued-issued)
	}
}
