package msd

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Tamper-evident audit chain over the job journal.
//
// Every terminal journal record (done, failed, interrupted) becomes a
// Merkle leaf: the SHA-256 of the exact line bytes as written, so any
// later edit of a verdict — a flipped leaky bit, a swapped unit list, a
// rewritten error — changes the leaf. Leaves are batched (Config.
// AuditBatch per batch, partial batches flushed at drain) into a Merkle
// root, and the roots are chained: chain_n = H(chain_{n-1} || root_n),
// starting from a zero chain. Each root is persisted as an "audit"
// record in the same journal, carrying the root, the previous chain
// value, and the ordinal range of leaves it covers.
//
// The scheme makes the journal append-only in a checkable sense:
// VerifyAuditLog recomputes every root and the chain from the raw lines
// and fails on any mutated, reordered, inserted or deleted terminal
// record, and on any truncation that removes an audited record. The one
// blind spot is pure tail truncation — deleting records newer than the
// last audit record is indistinguishable from the daemon never having
// written them. Anchoring the latest chain value externally (the
// /api/v1/audit endpoint serves it; cmd/msd -audit-verify accepts it
// via -audit-head) closes that gap.

// defaultAuditBatch is how many terminal records one Merkle root covers
// when Config.AuditBatch is zero: small enough that a crash loses at
// most a few leaves to the unflushed tail, large enough that the
// journal is not dominated by audit records.
const defaultAuditBatch = 8

// terminalEvent reports whether a journal event records a terminal
// verdict and therefore becomes an audit leaf: a job's lifecycle end,
// or — on the cluster path — a batch point's terminal result and the
// batch's own seal.
func terminalEvent(event string) bool {
	switch event {
	case "done", "failed", "interrupted", "batch-point", "batch-done":
		return true
	}
	return false
}

// merkleLeaf hashes one journal line into a leaf. Line bytes exclude
// the trailing newline.
func merkleLeaf(line []byte) [32]byte { return sha256.Sum256(line) }

// merkleNode hashes two child digests into their parent. The 0x01
// domain-separation prefix keeps interior nodes from colliding with
// leaves (a leaf is the plain SHA-256 of a line).
func merkleNode(l, r [32]byte) [32]byte {
	buf := make([]byte, 1, 1+2*32)
	buf[0] = 0x01
	buf = append(buf, l[:]...)
	buf = append(buf, r[:]...)
	return sha256.Sum256(buf)
}

// merkleRoot folds leaves into a root; an odd node at any level is
// promoted unchanged. A single leaf is its own root; merkleRoot of no
// leaves is never taken (batches are flushed only when non-empty).
func merkleRoot(leaves [][32]byte) [32]byte {
	level := leaves
	for len(level) > 1 {
		level = merkleUp(level)
	}
	return level[0]
}

// merkleUp hashes one tree level into the next, promoting an odd last
// node unchanged.
func merkleUp(level [][32]byte) [][32]byte {
	next := make([][32]byte, 0, (len(level)+1)/2)
	for i := 0; i < len(level); i += 2 {
		if i+1 < len(level) {
			next = append(next, merkleNode(level[i], level[i+1]))
		} else {
			next = append(next, level[i])
		}
	}
	return next
}

// chainNext advances the root chain: H(prev || root).
func chainNext(prev, root [32]byte) [32]byte {
	buf := make([]byte, 0, 2*32)
	buf = append(buf, prev[:]...)
	buf = append(buf, root[:]...)
	return sha256.Sum256(buf)
}

// proofStep is one sibling on an inclusion path, bottom-up. Left means
// the sibling sits to the left of the running hash.
type proofStep struct {
	Hash string `json:"hash"`
	Left bool   `json:"left"`
}

// inclusionProof returns the sibling path of leaves[idx] up to the
// batch root, mirroring merkleRoot's odd-node promotion (a promoted
// node contributes no step at that level).
func inclusionProof(leaves [][32]byte, idx int) []proofStep {
	proof := []proofStep{}
	level := leaves
	for len(level) > 1 {
		if sib := idx ^ 1; sib < len(level) {
			proof = append(proof, proofStep{
				Hash: hex.EncodeToString(level[sib][:]),
				Left: sib < idx,
			})
		}
		level = merkleUp(level)
		idx /= 2
	}
	return proof
}

// auditBatch is one flushed root with the leaves it covers, retained in
// memory so /api/v1/audit can serve inclusion proofs without re-reading
// the journal.
type auditBatch struct {
	first  int // 1-based ordinal of the first leaf's terminal record
	root   [32]byte
	chain  [32]byte // chain value after this batch
	leaves [][32]byte
	ids    []string // job ID per leaf, parallel to leaves
}

// auditor accumulates terminal-record leaves and emits audit records.
// It is driven by Server.journal under its own lock (journal appends of
// different jobs can race) and read by the audit endpoint.
type auditor struct {
	batchSize int

	mu      sync.Mutex
	chain   [32]byte // running chain value (zero before the first batch)
	seq     int      // terminal records observed so far
	pending [][32]byte
	pendIDs []string
	batches []auditBatch
}

func newAuditor(batchSize int) *auditor {
	if batchSize <= 0 {
		batchSize = defaultAuditBatch
	}
	return &auditor{batchSize: batchSize}
}

// observe absorbs one terminal journal line. When the pending batch
// reaches the batch size it is sealed and the audit record to persist
// is returned.
func (a *auditor) observe(jobID string, line []byte) (journalRecord, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seq++
	a.pending = append(a.pending, merkleLeaf(line))
	a.pendIDs = append(a.pendIDs, jobID)
	if len(a.pending) < a.batchSize {
		return journalRecord{}, false
	}
	return a.sealLocked(len(a.pending)), true
}

// flush seals a partial pending batch (drain path); reports false when
// nothing is pending.
func (a *auditor) flush() (journalRecord, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.pending) == 0 {
		return journalRecord{}, false
	}
	return a.sealLocked(len(a.pending)), true
}

// sealLocked seals the oldest n pending leaves into a batch under one
// root and returns the audit record that persists it.
func (a *auditor) sealLocked(n int) journalRecord {
	root := merkleRoot(a.pending[:n])
	prev := a.chain
	a.chain = chainNext(prev, root)
	first := a.seq - len(a.pending) + 1
	a.batches = append(a.batches, auditBatch{
		first:  first,
		root:   root,
		chain:  a.chain,
		leaves: a.pending[:n:n],
		ids:    a.pendIDs[:n:n],
	})
	a.pending, a.pendIDs = a.pending[n:], a.pendIDs[n:]
	return journalRecord{
		Event: "audit",
		Root:  hex.EncodeToString(root[:]),
		Prev:  hex.EncodeToString(prev[:]),
		First: first,
		Count: n,
	}
}

// replay rebuilds the auditor's state from a previous incarnation's raw
// journal bytes: terminal lines become pending leaves, audit lines seal
// them. Replay trusts the journal (verification is VerifyAuditLog's
// job) but tolerates the same torn tail parseJournal does.
func (a *auditor) replay(raw []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	forEachJournalLine(raw, func(line []byte, rec journalRecord) {
		switch {
		case terminalEvent(rec.Event):
			a.seq++
			a.pending = append(a.pending, merkleLeaf(line))
			a.pendIDs = append(a.pendIDs, rec.ID)
		case rec.Event == "audit":
			// Drop the leaves this root covered; on a well-formed journal
			// that is exactly the pending set. A count mismatch (tamper or
			// torn audit line) keeps the extra leaves pending so they are
			// re-audited rather than silently lost.
			if rec.Count > 0 && rec.Count <= len(a.pending) {
				a.sealLocked(rec.Count)
			}
		}
	})
}

// forEachJournalLine walks raw journal bytes line by line, invoking fn
// with the exact line bytes and the decoded record. Unparsable lines
// (a torn tail) are skipped. It is the journal's one line decoder:
// recovery (parseJournal), the auditor and VerifyAuditLog all read
// through it.
func forEachJournalLine(raw []byte, fn func(line []byte, rec journalRecord)) {
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			continue
		}
		// Copy: the scanner reuses its buffer.
		fn(append([]byte(nil), line...), rec)
	}
}

// auditRootView is one chained root on the wire.
type auditRootView struct {
	Root  string `json:"root"`
	Prev  string `json:"prev"`
	Chain string `json:"chain"`
	First int    `json:"first"`
	Count int    `json:"count"`
}

// auditProofView is an inclusion proof for one job's terminal record.
type auditProofView struct {
	Job   string      `json:"job"`
	Leaf  string      `json:"leaf"`
	Index int         `json:"index"` // leaf position within its batch
	Root  string      `json:"root"`
	Path  []proofStep `json:"path"`
}

// auditView is the GET /api/v1/audit payload.
type auditView struct {
	BatchSize int             `json:"batchSize"`
	Terminal  int             `json:"terminalRecords"`
	Pending   int             `json:"pendingRecords"`
	Chain     string          `json:"chain"`
	Roots     []auditRootView `json:"roots"`
	Proof     *auditProofView `json:"proof,omitempty"`
}

// view snapshots the chain; when jobID is non-empty it also builds the
// inclusion proof of that job's most recent audited terminal record
// (ok=false when the job has none).
func (a *auditor) view(jobID string) (auditView, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	v := auditView{
		BatchSize: a.batchSize,
		Terminal:  a.seq,
		Pending:   len(a.pending),
		Chain:     hex.EncodeToString(a.chain[:]),
		Roots:     make([]auditRootView, 0, len(a.batches)),
	}
	prev := [32]byte{}
	for _, b := range a.batches {
		v.Roots = append(v.Roots, auditRootView{
			Root:  hex.EncodeToString(b.root[:]),
			Prev:  hex.EncodeToString(prev[:]),
			Chain: hex.EncodeToString(b.chain[:]),
			First: b.first,
			Count: len(b.leaves),
		})
		prev = b.chain
	}
	if jobID == "" {
		return v, true
	}
	// Most recent audited terminal record wins: a requeued-interrupted
	// job can terminate more than once.
	for bi := len(a.batches) - 1; bi >= 0; bi-- {
		b := a.batches[bi]
		for li := len(b.ids) - 1; li >= 0; li-- {
			if b.ids[li] != jobID {
				continue
			}
			v.Proof = &auditProofView{
				Job:   jobID,
				Leaf:  hex.EncodeToString(b.leaves[li][:]),
				Index: li,
				Root:  hex.EncodeToString(b.root[:]),
				Path:  inclusionProof(b.leaves, li),
			}
			return v, true
		}
	}
	return v, false
}

// AuditSummary is VerifyAuditLog's digest of a clean journal.
type AuditSummary struct {
	// Records is the total number of parsed journal lines, Terminal the
	// number of audit leaves among them, and Batches the number of
	// verified Merkle roots. Pending counts terminal records newer than
	// the last root (not yet covered by any batch).
	Records  int
	Terminal int
	Batches  int
	Pending  int
	// Chain is the hex chain value after the last verified root: the
	// anchor to compare against an externally recorded head.
	Chain string
}

// VerifyAuditLog replays the journal under dir and recomputes every
// Merkle root and the root chain from the raw line bytes. It fails on
// any mutated, inserted, deleted or reordered terminal record covered
// by an audit record, and on any malformed or out-of-order audit
// record. Terminal records after the last root are uncheckable and
// only counted (Pending); so is pure tail truncation — anchor the
// chain externally to detect it.
func VerifyAuditLog(dir string) (AuditSummary, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return AuditSummary{}, fmt.Errorf("msd: read journal: %w", err)
	}
	var sum AuditSummary
	var pending [][32]byte
	chain := [32]byte{}
	seq := 0
	var verr error
	forEachJournalLine(raw, func(line []byte, rec journalRecord) {
		if verr != nil {
			return
		}
		sum.Records++
		switch {
		case terminalEvent(rec.Event):
			seq++
			sum.Terminal++
			pending = append(pending, merkleLeaf(line))
		case rec.Event == "audit":
			if rec.Count <= 0 {
				verr = fmt.Errorf("audit record %d covers no records", sum.Batches+1)
				return
			}
			if rec.Count != len(pending) {
				verr = fmt.Errorf("audit record %d covers %d records, journal has %d uncovered",
					sum.Batches+1, rec.Count, len(pending))
				return
			}
			if want := seq - len(pending) + 1; rec.First != want {
				verr = fmt.Errorf("audit record %d starts at terminal ordinal %d, want %d",
					sum.Batches+1, rec.First, want)
				return
			}
			if got := hex.EncodeToString(chain[:]); rec.Prev != got {
				verr = fmt.Errorf("audit record %d chains from %.12s…, journal head is %.12s…",
					sum.Batches+1, rec.Prev, got)
				return
			}
			root := merkleRoot(pending)
			if got := hex.EncodeToString(root[:]); rec.Root != got {
				verr = fmt.Errorf("audit record %d root mismatch: journal says %.12s…, records hash to %.12s…",
					sum.Batches+1, rec.Root, got)
				return
			}
			chain = chainNext(chain, root)
			pending = nil
			sum.Batches++
		}
	})
	if verr != nil {
		return sum, fmt.Errorf("msd: audit verification failed: %w", verr)
	}
	sum.Pending = len(pending)
	sum.Chain = hex.EncodeToString(chain[:])
	return sum, nil
}
