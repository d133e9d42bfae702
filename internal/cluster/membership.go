package cluster

import (
	"slices"
	"strings"
	"sync"
	"time"
)

// defaultWorkerTTL is how stale a worker's heartbeat may be before the
// coordinator treats it as dead when no TTL is configured.
const defaultWorkerTTL = 5 * time.Second

// reapAfterTTLs is how many TTLs a dead worker's entry lingers before
// it is dropped entirely; long enough that its heartbeat age stays
// visible on /metrics across a few scrapes, short enough that the
// table (and the max-age gauge) is not pinned forever by one crash. A
// reaped worker that comes back simply re-registers — its agent
// re-registers on the first heartbeat the coordinator rejects.
const reapAfterTTLs = 20

// WorkerInfo is one worker's membership snapshot.
type WorkerInfo struct {
	ID  string `json:"id"`
	URL string `json:"url"`
	// HeartbeatAge is how long ago the last heartbeat (or registration)
	// arrived.
	HeartbeatAge time.Duration `json:"-"`
	// HeartbeatAgeSeconds is HeartbeatAge on the wire.
	HeartbeatAgeSeconds float64 `json:"heartbeatAgeSeconds"`
	Healthy             bool    `json:"healthy"`
}

type member struct {
	id, url  string
	lastBeat time.Time
}

// Membership is the coordinator's failure detector: the registered
// worker set with heartbeat timestamps. A worker whose last heartbeat
// is older than the TTL is dead — excluded from Healthy and therefore
// from dispatch — until it re-registers or beats again.
type Membership struct {
	ttl time.Duration
	now func() time.Time // injectable clock for tests

	mu      sync.Mutex
	members map[string]*member
}

// NewMembership builds a worker table with the given heartbeat TTL
// (<= 0 selects the default).
func NewMembership(ttl time.Duration) *Membership {
	if ttl <= 0 {
		ttl = defaultWorkerTTL
	}
	return &Membership{ttl: ttl, now: time.Now, members: make(map[string]*member)}
}

// TTL returns the configured heartbeat TTL.
func (m *Membership) TTL() time.Duration { return m.ttl }

// Register adds (or revives) a worker and counts as a heartbeat.
func (m *Membership) Register(id, url string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.members[id] = &member{id: id, url: url, lastBeat: m.now()}
}

// Heartbeat refreshes a worker's liveness; false means the worker is
// unknown (never registered, or reaped after dying) and must
// re-register.
func (m *Membership) Heartbeat(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.members[id]
	if !ok {
		return false
	}
	w.lastBeat = m.now()
	return true
}

// MarkDead forces a worker unhealthy immediately — ahead of its TTL —
// by backdating its heartbeat. The entry survives until reaped, so a
// re-register or a fresh heartbeat revives it.
func (m *Membership) MarkDead(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if w, ok := m.members[id]; ok {
		w.lastBeat = m.now().Add(-m.ttl - time.Nanosecond)
	}
}

// Alive reports whether a worker is registered with a fresh heartbeat.
func (m *Membership) Alive(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.members[id]
	return ok && m.now().Sub(w.lastBeat) <= m.ttl
}

// Healthy returns the live worker set, sorted by ID for deterministic
// iteration. Long-dead entries are reaped as a side effect.
func (m *Membership) Healthy() []WorkerInfo {
	return m.snapshot(true)
}

// Snapshot returns every registered worker — healthy or not — sorted
// by ID; the /api/v1/cluster/workers view.
func (m *Membership) Snapshot() []WorkerInfo {
	return m.snapshot(false)
}

func (m *Membership) snapshot(healthyOnly bool) []WorkerInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	out := make([]WorkerInfo, 0, len(m.members))
	for id, w := range m.members {
		age := now.Sub(w.lastBeat)
		if age > time.Duration(reapAfterTTLs)*m.ttl {
			delete(m.members, id)
			continue
		}
		healthy := age <= m.ttl
		if healthyOnly && !healthy {
			continue
		}
		out = append(out, WorkerInfo{
			ID: w.id, URL: w.url,
			HeartbeatAge:        age,
			HeartbeatAgeSeconds: age.Seconds(),
			Healthy:             healthy,
		})
	}
	slices.SortFunc(out, func(a, b WorkerInfo) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// MaxHeartbeatAge is the staleness of the most-stale registered worker
// (zero with no workers) — the msd_worker_heartbeat_age_seconds gauge.
func (m *Membership) MaxHeartbeatAge() time.Duration {
	var max time.Duration
	for _, w := range m.snapshot(false) {
		if w.HeartbeatAge > max {
			max = w.HeartbeatAge
		}
	}
	return max
}
