// Package cache implements the content-addressed result cache of the
// verification pipeline. A verification is a pure function of (program
// bytes, machine configuration, seed range, detection-relevant options)
// — the calibration gate proves byte-identical output across runs — so
// hashing that tuple into a canonical SHA-256 key lets repeat
// submissions (CI re-runs, popular crypto kernels, matrix re-sweeps) be
// served in microseconds instead of a full simulation.
//
// The package deliberately knows nothing about reports or jobs: it
// provides the canonical key builder (Hasher), a bounded in-memory LRU
// of arbitrary values, an fsync'd content-addressed disk blob store,
// and a singleflight group for deduplicating identical in-flight work.
// core builds its keys with the Hasher; the CLI and the msd daemon
// compose the stores into their own caching layers.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sync"
)

// Hasher builds a canonical content-addressed key: a SHA-256 over a
// sequence of named, typed fields. Every field is written as
// length-prefixed (name, type tag, value) triples, so distinct field
// sequences can never collide by concatenation ("ab"+"c" vs "a"+"bc")
// and a value of one type can never alias a value of another.
//
// Canonicalisation is by construction: callers write fields in a fixed
// schema order with defaults already applied, so two requests that
// differ only in JSON field order or in spelling out a default produce
// the same key, while any change to a hashed field changes it.
type Hasher struct {
	h   hash.Hash
	buf [10]byte
}

// NewHasher returns an empty key builder.
func NewHasher() *Hasher {
	return &Hasher{h: sha256.New()}
}

func (k *Hasher) writeLen(n int) {
	m := binary.PutUvarint(k.buf[:], uint64(n))
	k.h.Write(k.buf[:m])
}

func (k *Hasher) field(name string, tag byte) {
	k.writeLen(len(name))
	k.h.Write([]byte(name))
	k.h.Write([]byte{tag})
}

// Str hashes a named string field.
func (k *Hasher) Str(name, v string) {
	k.field(name, 's')
	k.writeLen(len(v))
	k.h.Write([]byte(v))
}

// Bytes hashes a named byte-slice field (e.g. program bytes).
func (k *Hasher) Bytes(name string, v []byte) {
	k.field(name, 'b')
	k.writeLen(len(v))
	k.h.Write(v)
}

// Int hashes a named integer field.
func (k *Hasher) Int(name string, v int64) {
	k.field(name, 'i')
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	k.h.Write(b[:])
}

// Uint hashes a named unsigned integer field.
func (k *Hasher) Uint(name string, v uint64) {
	k.field(name, 'u')
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	k.h.Write(b[:])
}

// Bool hashes a named boolean field.
func (k *Hasher) Bool(name string, v bool) {
	k.field(name, 'f')
	if v {
		k.h.Write([]byte{1})
	} else {
		k.h.Write([]byte{0})
	}
}

// Sum returns the key: the lowercase-hex SHA-256 of every field written
// so far. The Hasher must not be reused after Sum.
func (k *Hasher) Sum() string {
	return hex.EncodeToString(k.h.Sum(nil))
}

// LRU is a bounded, goroutine-safe in-memory cache mapping canonical
// keys to arbitrary values, evicting least-recently-used entries beyond
// the capacity. Values are shared, not copied: callers must treat
// cached values as immutable (verification reports are read-only once
// built).
type LRU struct {
	mu    sync.Mutex
	max   int
	ll    *list.List
	items map[string]*list.Element
}

type lruEntry struct {
	key   string
	value any
}

// NewLRU returns an empty cache holding at most max entries (values
// below 1 are clamped to 1).
func NewLRU(max int) *LRU {
	if max < 1 {
		max = 1
	}
	return &LRU{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the value cached under key, marking it most recently
// used.
func (c *LRU) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).value, true
}

// Put caches value under key, evicting the least recently used entry
// when the cache is full. Re-putting an existing key refreshes its
// value and recency.
func (c *LRU) Put(key string, value any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).value = value
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, value: value})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// Len returns the number of cached entries.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
