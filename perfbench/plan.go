package main

import (
	"math/rand/v2"
	"sync"
)

// deckRand is the generator of deck d of a run with the given seed.
// Each deck draws from its own stream, so deck d is the same whatever
// was drawn before it, and inputs depend on nothing but (seed, d).
func deckRand(seed int64, d int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(d)))
}

// deckMemo generates decks on first use and keeps them, so that
// concurrent clients see one sequence.
type deckMemo[T any] struct {
	gen   func(d int) T
	mu    sync.Mutex
	decks map[int]T
}

func (m *deckMemo[T]) get(d int) T {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.decks[d]; ok {
		return v
	}
	if m.decks == nil {
		m.decks = make(map[int]T)
	}
	v := m.gen(d)
	m.decks[d] = v
	return v
}
