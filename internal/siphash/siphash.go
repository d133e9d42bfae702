// Package siphash implements SipHash-2-4 producing 64-bit digests. The
// paper hashes every microarchitectural iteration snapshot with Python's
// default SipHash; this package is the equivalent primitive, guaranteeing
// that identical state matrices collapse to identical hashes while
// distinct matrices collide with probability ~2^-64.
package siphash

import "math/bits"

// Key is a 128-bit SipHash key.
type Key struct {
	K0, K1 uint64
}

// DefaultKey is the fixed key used for snapshot hashing. The analysis
// needs hashes to be stable across runs, not secret, so a published
// constant is appropriate.
var DefaultKey = Key{K0: 0x0706050403020100, K1: 0x0f0e0d0c0b0a0908}

// Hash computes the SipHash-2-4 digest of data under the key.
func Hash(k Key, data []byte) uint64 {
	h := New(k)
	h.Write(data)
	return h.Sum64()
}

// Hasher is an incremental SipHash-2-4 state. The zero value is not
// usable; construct with New.
type Hasher struct {
	v0, v1, v2, v3 uint64
	buf            [8]byte
	bufLen         int
	length         uint64
}

// New returns a Hasher initialised with the key.
func New(k Key) *Hasher {
	h := &Hasher{}
	h.Reset(k)
	return h
}

// Reset reinitialises the hasher to its post-New state under the key,
// discarding all absorbed data. It lets long-lived recorders rehash
// without allocating a fresh Hasher per iteration.
func (h *Hasher) Reset(k Key) {
	h.v0 = k.K0 ^ 0x736f6d6570736575
	h.v1 = k.K1 ^ 0x646f72616e646f6d
	h.v2 = k.K0 ^ 0x6c7967656e657261
	h.v3 = k.K1 ^ 0x7465646279746573
	h.bufLen = 0
	h.length = 0
}

// sipRound is one SipRound over the four state words. It takes and
// returns values rather than a *Hasher so that it inlines and the state
// stays in registers across a whole row.
func sipRound(v0, v1, v2, v3 uint64) (uint64, uint64, uint64, uint64) {
	v0 += v1
	v1 = bits.RotateLeft64(v1, 13)
	v1 ^= v0
	v0 = bits.RotateLeft64(v0, 32)
	v2 += v3
	v3 = bits.RotateLeft64(v3, 16)
	v3 ^= v2
	v0 += v3
	v3 = bits.RotateLeft64(v3, 21)
	v3 ^= v0
	v2 += v1
	v1 = bits.RotateLeft64(v1, 17)
	v1 ^= v2
	v2 = bits.RotateLeft64(v2, 32)
	return v0, v1, v2, v3
}

// sipBlock absorbs one 64-bit message word: SipHash-2-4's two
// compression rounds.
func sipBlock(v0, v1, v2, v3, m uint64) (uint64, uint64, uint64, uint64) {
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3^m)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	return v0 ^ m, v1, v2, v3
}

func (h *Hasher) block(m uint64) {
	h.v0, h.v1, h.v2, h.v3 = sipBlock(h.v0, h.v1, h.v2, h.v3, m)
}

// Write absorbs data into the hash state. It never fails.
func (h *Hasher) Write(data []byte) (int, error) {
	n := len(data)
	h.length += uint64(n)
	if h.bufLen > 0 {
		for len(data) > 0 && h.bufLen < 8 {
			h.buf[h.bufLen] = data[0]
			h.bufLen++
			data = data[1:]
		}
		if h.bufLen == 8 {
			h.block(le64(h.buf[:]))
			h.bufLen = 0
		}
	}
	for len(data) >= 8 {
		h.block(le64(data))
		data = data[8:]
	}
	for _, b := range data {
		h.buf[h.bufLen] = b
		h.bufLen++
	}
	return n, nil
}

// WriteUint64 absorbs one little-endian 64-bit word; it is the hot path
// for snapshot matrices.
func (h *Hasher) WriteUint64(v uint64) {
	if h.bufLen == 0 {
		h.length += 8
		h.block(v)
		return
	}
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	h.Write(b[:]) //nolint:errcheck // cannot fail
}

// WriteRow absorbs one snapshot row: its length tagged with the high
// bit, then each value. It is equivalent to WriteUint64(uint64(len(row))
// | 1<<63) followed by one WriteUint64 per value, but keeps the state in
// local variables across the row instead of reading and writing it
// through the Hasher on every word.
func (h *Hasher) WriteRow(row []uint64) {
	if h.bufLen != 0 {
		h.WriteUint64(uint64(len(row)) | 1<<63)
		for _, v := range row {
			h.WriteUint64(v)
		}
		return
	}
	v0, v1, v2, v3 := sipBlock(h.v0, h.v1, h.v2, h.v3, uint64(len(row))|1<<63)
	for _, m := range row {
		v0, v1, v2, v3 = sipBlock(v0, v1, v2, v3, m)
	}
	h.v0, h.v1, h.v2, h.v3 = v0, v1, v2, v3
	h.length += 8 * uint64(len(row)+1)
}

// Sum64 returns the digest of the data absorbed so far. Finalisation
// runs on a copy of the state, so Sum64 is idempotent and the Hasher
// remains usable for further writes.
func (h *Hasher) Sum64() uint64 {
	f := *h
	var last uint64
	for i := 0; i < f.bufLen; i++ {
		last |= uint64(f.buf[i]) << (8 * i)
	}
	last |= (f.length & 0xFF) << 56
	f.block(last)
	v0, v1, v2, v3 := f.v0, f.v1, f.v2^0xFF, f.v3
	for i := 0; i < 4; i++ {
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	}
	return v0 ^ v1 ^ v2 ^ v3
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
