package siphash

import (
	"encoding/binary"
	"testing"
)

// FuzzSipHashChunks asserts that the digest is independent of how the
// input is sliced across Write calls, that the WriteUint64 fast path
// agrees with the byte path, and that the WriteRow kernel agrees with
// the word path — the properties the snapshot layer's incremental
// hashing depends on.
func FuzzSipHashChunks(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte("hello, siphash"), uint8(3))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, uint8(7))
	f.Add([]byte{0xFF}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, split uint8) {
		want := Hash(DefaultKey, data)

		// Arbitrary chunking must not change the digest.
		h := New(DefaultKey)
		step := int(split)%7 + 1
		for rest := data; len(rest) > 0; {
			n := step
			if n > len(rest) {
				n = len(rest)
			}
			h.Write(rest[:n]) //nolint:errcheck // cannot fail
			rest = rest[n:]
		}
		if got := h.Sum64(); got != want {
			t.Errorf("chunked (step %d) = %#x, one-shot = %#x", step, got, want)
		}

		// The word fast path must agree with writing the same bytes,
		// for every multiple-of-8 prefix and regardless of buffered
		// leading bytes.
		lead := int(split) % 8
		if lead > len(data) {
			lead = len(data)
		}
		words := data[lead:]
		words = words[:len(words)/8*8]
		hw := New(DefaultKey)
		hb := New(DefaultKey)
		hw.Write(data[:lead]) //nolint:errcheck // cannot fail
		hb.Write(data[:lead]) //nolint:errcheck // cannot fail
		for i := 0; i < len(words); i += 8 {
			hw.WriteUint64(binary.LittleEndian.Uint64(words[i : i+8]))
		}
		hb.Write(words) //nolint:errcheck // cannot fail
		if gw, gb := hw.Sum64(), hb.Sum64(); gw != gb {
			t.Errorf("WriteUint64 path %#x != Write path %#x (lead %d, %d words)",
				gw, gb, lead, len(words)/8)
		}

		// WriteRow must equal the tagged length word followed by one
		// WriteUint64 per value, both on an empty hasher and on one
		// holding buffered bytes (lead != 0 takes the word fallback).
		row := make([]uint64, len(words)/8)
		for i := range row {
			row[i] = binary.LittleEndian.Uint64(words[8*i:])
		}
		for _, pre := range [][]byte{nil, data[:lead]} {
			hr := New(DefaultKey)
			hu := New(DefaultKey)
			hr.Write(pre) //nolint:errcheck // cannot fail
			hu.Write(pre) //nolint:errcheck // cannot fail
			hr.WriteRow(row)
			hu.WriteUint64(uint64(len(row)) | 1<<63)
			for _, v := range row {
				hu.WriteUint64(v)
			}
			if gr, gu := hr.Sum64(), hu.Sum64(); gr != gu {
				t.Errorf("WriteRow %#x != word path %#x (lead %d, %d values)",
					gr, gu, len(pre), len(row))
			}
			// Rows must also chain: a second row continues the state.
			hr.WriteRow(row[:len(row)/2])
			hu.WriteUint64(uint64(len(row)/2) | 1<<63)
			for _, v := range row[:len(row)/2] {
				hu.WriteUint64(v)
			}
			if gr, gu := hr.Sum64(), hu.Sum64(); gr != gu {
				t.Errorf("second WriteRow %#x != word path %#x (lead %d)", gr, gu, len(pre))
			}
		}
	})
}
