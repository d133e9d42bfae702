package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHasherDeterministic(t *testing.T) {
	build := func() string {
		h := NewHasher()
		h.Str("workload", "ME-V1-MV")
		h.Bytes("source", []byte("mul t0, s2, s2"))
		h.Int("runs", 8)
		h.Uint("seed", 42)
		h.Bool("fastbypass", true)
		return h.Sum()
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("same fields, different keys: %s vs %s", a, b)
	}
}

func TestHasherFieldSensitivity(t *testing.T) {
	base := func(mutate func(*Hasher)) string {
		h := NewHasher()
		h.Str("workload", "smoke")
		h.Int("runs", 4)
		h.Bool("flag", false)
		if mutate != nil {
			mutate(h)
		}
		return h.Sum()
	}
	ref := base(nil)
	for name, k := range map[string]string{
		"extra field": base(func(h *Hasher) { h.Int("warmup", 2) }),
		"changed int": func() string {
			h := NewHasher()
			h.Str("workload", "smoke")
			h.Int("runs", 5)
			h.Bool("flag", false)
			return h.Sum()
		}(),
		"changed bool": func() string {
			h := NewHasher()
			h.Str("workload", "smoke")
			h.Int("runs", 4)
			h.Bool("flag", true)
			return h.Sum()
		}(),
	} {
		if k == ref {
			t.Errorf("%s did not change the key", name)
		}
	}
}

// TestHasherNoConcatenationAliasing pins the length-prefixing: field
// boundaries must be unambiguous, so ("ab","c") never collides with
// ("a","bc"), and a value can never bleed into the next field's name.
func TestHasherNoConcatenationAliasing(t *testing.T) {
	a := NewHasher()
	a.Str("ab", "c")
	b := NewHasher()
	b.Str("a", "bc")
	if a.Sum() == b.Sum() {
		t.Fatal("field name/value boundary aliasing")
	}
	c := NewHasher()
	c.Str("x", "y")
	c.Str("z", "w")
	d := NewHasher()
	d.Str("x", "yz")
	d.Str("", "w")
	if c.Sum() == d.Sum() {
		t.Fatal("cross-field aliasing")
	}
	e := NewHasher()
	e.Str("n", "1")
	f := NewHasher()
	f.Bytes("n", []byte("1"))
	if e.Sum() == f.Sum() {
		t.Fatal("type tag aliasing: Str vs Bytes")
	}
}

func TestLRUBasics(t *testing.T) {
	c := NewLRU(2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	// "b" is now least recently used; inserting "c" must evict it.
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry not evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("newest entry evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("entries = %d, want 2", c.Len())
	}
}

func TestLRURePutRefreshes(t *testing.T) {
	c := NewLRU(2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh: "b" becomes LRU
	c.Put("c", 3)
	if v, ok := c.Get("a"); !ok || v.(int) != 10 {
		t.Fatalf("Get(a) = %v, %v; want refreshed 10", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("stale LRU entry survived")
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := NewLRU(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%100)
				c.Put(key, i)
				c.Get(key)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("cache grew past capacity: %d", c.Len())
	}
}

func TestDiskRoundTrip(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := NewHasher().Sum() // hex of empty hash — a valid key shape
	if _, ok, err := d.Get(key); err != nil || ok {
		t.Fatalf("Get on empty store = ok=%v err=%v", ok, err)
	}
	blob := []byte("verdict bytes")
	if err := d.Put(key, blob); err != nil {
		t.Fatal(err)
	}
	got, ok, err := d.Get(key)
	if err != nil || !ok || string(got) != string(blob) {
		t.Fatalf("Get = %q, %v, %v", got, ok, err)
	}
	// No stray temp files left behind.
	var stray []string
	filepath.Walk(d.Dir(), func(p string, info os.FileInfo, _ error) error {
		if info != nil && !info.IsDir() && filepath.Ext(p) == ".tmp" {
			stray = append(stray, p)
		}
		return nil
	})
	if len(stray) > 0 {
		t.Fatalf("temp files left behind: %v", stray)
	}
}

// TestDiskConcurrentPutsOneKey: writers racing to file blobs of
// different lengths under one key all succeed, and the stored blob is
// one of them whole, never bytes of two.
func TestDiskConcurrentPutsOneKey(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := NewHasher().Sum()
	blobs := make([][]byte, 4)
	for i := range blobs {
		blobs[i] = bytes.Repeat([]byte{byte('a' + i)}, 4096*(len(blobs)-i))
	}
	var wg sync.WaitGroup
	for _, blob := range blobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				if err := d.Put(key, blob); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, ok, err := d.Get(key)
	if err != nil || !ok || !slices.ContainsFunc(blobs, func(b []byte) bool { return bytes.Equal(b, got) }) {
		t.Fatalf("stored blob of %d bytes is none of the written ones (ok=%v err=%v)", len(got), ok, err)
	}
}

func TestDiskRejectsUnsafeKeys(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "ab", "../../etc/passwd", "a/b", "..abcdef"} {
		if err := d.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an unsafe key", key)
		}
	}
}

func TestGroupDedupesInFlight(t *testing.T) {
	var g Group
	var calls atomic.Int64
	gate := make(chan struct{})
	const n = 8
	results := make([]any, n)
	shareds := make([]bool, n)
	var wg sync.WaitGroup
	do := func(i int) {
		defer wg.Done()
		v, err, shared := g.Do("key", func() (any, error) {
			calls.Add(1)
			<-gate
			return "result", nil
		})
		if err != nil {
			t.Error(err)
		}
		results[i], shareds[i] = v, shared
	}
	// Start the leader alone and wait until it is inside fn (blocked on
	// the gate); only then launch the followers, so every follower joins
	// while the call is provably in flight.
	wg.Add(1)
	go do(0)
	for calls.Load() == 0 {
		runtime.Gosched()
	}
	for i := 1; i < n; i++ {
		wg.Add(1)
		go do(i)
	}
	time.Sleep(20 * time.Millisecond) // let followers enter Do
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	nShared := 0
	for i := range results {
		if results[i].(string) != "result" {
			t.Fatalf("result[%d] = %v", i, results[i])
		}
		if shareds[i] {
			nShared++
		}
	}
	if nShared != n-1 {
		t.Fatalf("shared count = %d, want %d", nShared, n-1)
	}
}

func TestGroupSequentialCallsRunFresh(t *testing.T) {
	var g Group
	var calls int
	for i := 0; i < 3; i++ {
		_, _, shared := g.Do("key", func() (any, error) {
			calls++
			return nil, nil
		})
		if shared {
			t.Fatalf("sequential call %d marked shared", i)
		}
	}
	if calls != 3 {
		t.Fatalf("fn ran %d times, want 3 (group must not cache at rest)", calls)
	}
}
