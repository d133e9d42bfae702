package msd

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// drainNow drains s with a short deadline, failing the test on timeout.
func drainNow(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// runJobs submits n trivially distinct jobs and waits for each.
func runJobs(t *testing.T, base string, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		v, code := submitJob(t, base, JobRequest{Source: fmt.Sprintf("nop %d", i)})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		waitDone(t, base, v.ID)
		ids = append(ids, v.ID)
	}
	return ids
}

func TestAuditLogVerifiesClean(t *testing.T) {
	dir := t.TempDir()
	s, ts := newJournaledServer(t, dir, Config{Workers: 1, AuditBatch: 2}, nil)
	runJobs(t, ts.URL, 5)
	drainNow(t, s) // seals the trailing partial batch

	sum, err := VerifyAuditLog(dir)
	if err != nil {
		t.Fatalf("clean journal failed verification: %v", err)
	}
	if sum.Terminal != 5 {
		t.Errorf("terminal records = %d, want 5", sum.Terminal)
	}
	// 5 leaves at batch size 2: two full roots plus the drain flush.
	if sum.Batches != 3 {
		t.Errorf("batches = %d, want 3", sum.Batches)
	}
	if sum.Pending != 0 {
		t.Errorf("pending = %d, want 0 after drain", sum.Pending)
	}
	if sum.Chain == "" || sum.Chain == strings.Repeat("0", 64) {
		t.Errorf("chain head not advanced: %q", sum.Chain)
	}
}

// TestAuditLogConcurrentTerminalRecords journals terminal records from
// many goroutines at once, as a coordinator's batch dispatchers do: the
// audit roots must cover the terminal lines in the order the journal
// holds them.
func TestAuditLogConcurrentTerminalRecords(t *testing.T) {
	dir := t.TempDir()
	s, _ := newJournaledServer(t, dir, Config{Workers: 1, AuditBatch: 2}, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.journal(journalRecord{Event: "batch-point", ID: fmt.Sprintf("batch-%d", g), Time: time.Now()})
			}
		}()
	}
	wg.Wait()
	drainNow(t, s)
	sum, err := VerifyAuditLog(dir)
	if err != nil {
		t.Fatalf("concurrently journaled records failed verification: %v", err)
	}
	if sum.Terminal != 400 || sum.Pending != 0 {
		t.Errorf("terminal = %d, pending = %d, want 400 and 0", sum.Terminal, sum.Pending)
	}
}

// TestAuditLogDetectsTampering flips one audited verdict bit and
// expects verification to fail; same for deleting an audited record.
func TestAuditLogDetectsTampering(t *testing.T) {
	dir := t.TempDir()
	s, ts := newJournaledServer(t, dir, Config{Workers: 1, AuditBatch: 2}, nil)
	runJobs(t, ts.URL, 4)
	drainNow(t, s)
	if _, err := VerifyAuditLog(dir); err != nil {
		t.Fatalf("pre-tamper journal not clean: %v", err)
	}
	path := filepath.Join(dir, "journal.jsonl")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip the first job's verdict from leaky to clean.
	tampered := strings.Replace(string(pristine), `"leaky":true`, `"fixed":true`, 1)
	if tampered == string(pristine) {
		t.Fatal("test journal has no leaky verdict to tamper with")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyAuditLog(dir); err == nil {
		t.Error("tampered verdict passed audit verification")
	}

	// Delete one audited terminal record entirely.
	var kept []string
	dropped := false
	for _, line := range strings.Split(strings.TrimRight(string(pristine), "\n"), "\n") {
		if !dropped && strings.Contains(line, `"event":"done"`) {
			dropped = true
			continue
		}
		kept = append(kept, line)
	}
	if !dropped {
		t.Fatal("no done record to delete")
	}
	if err := os.WriteFile(path, []byte(strings.Join(kept, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyAuditLog(dir); err == nil {
		t.Error("journal with a deleted audited record passed verification")
	}

	// Restoring the pristine bytes verifies again.
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyAuditLog(dir); err != nil {
		t.Errorf("restored journal failed verification: %v", err)
	}
}

// proofRootFromPath replays an inclusion proof bottom-up.
func proofRootFromPath(t *testing.T, leafHex string, path []proofStep) string {
	t.Helper()
	decode := func(s string) (h [32]byte) {
		b, err := hex.DecodeString(s)
		if err != nil || len(b) != 32 {
			t.Fatalf("bad digest %q", s)
		}
		copy(h[:], b)
		return h
	}
	h := decode(leafHex)
	for _, st := range path {
		if st.Left {
			h = merkleNode(decode(st.Hash), h)
		} else {
			h = merkleNode(h, decode(st.Hash))
		}
	}
	return hex.EncodeToString(h[:])
}

func TestAuditEndpointServesChainAndProofs(t *testing.T) {
	dir := t.TempDir()
	s, ts := newJournaledServer(t, dir, Config{Workers: 1, AuditBatch: 2}, nil)
	t.Cleanup(func() { drainNow(t, s) })
	ids := runJobs(t, ts.URL, 3) // one sealed batch of 2, one pending

	getAudit := func(query string) (auditView, int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/api/v1/audit" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v auditView
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				t.Fatal(err)
			}
		}
		return v, resp.StatusCode
	}

	view, code := getAudit("")
	if code != http.StatusOK {
		t.Fatalf("GET /api/v1/audit: %d", code)
	}
	if view.Terminal != 3 || view.Pending != 1 || len(view.Roots) != 1 {
		t.Fatalf("audit view = %+v, want 3 terminal, 1 pending, 1 root", view)
	}
	if view.Roots[0].First != 1 || view.Roots[0].Count != 2 {
		t.Errorf("root covers [%d,+%d), want [1,+2)", view.Roots[0].First, view.Roots[0].Count)
	}
	if view.Chain != view.Roots[0].Chain {
		t.Errorf("head chain %q != last root chain %q", view.Chain, view.Roots[0].Chain)
	}

	// Inclusion proof for an audited job replays to the batch root.
	proved, code := getAudit("?job=" + ids[0])
	if code != http.StatusOK || proved.Proof == nil {
		t.Fatalf("proof request: code=%d proof=%v", code, proved.Proof)
	}
	if got := proofRootFromPath(t, proved.Proof.Leaf, proved.Proof.Path); got != proved.Proof.Root {
		t.Errorf("proof path replays to %.12s…, root is %.12s…", got, proved.Proof.Root)
	}
	if proved.Proof.Root != view.Roots[0].Root {
		t.Errorf("proof root not the batch root")
	}

	// The third job is still pending (no root covers it yet).
	if _, code := getAudit("?job=" + ids[2]); code != http.StatusNotFound {
		t.Errorf("unaudited job proof: %d, want 404", code)
	}
	if _, code := getAudit("?job=no-such-job"); code != http.StatusNotFound {
		t.Errorf("unknown job proof: %d, want 404", code)
	}
}

func TestAuditDisabledWithoutJournal(t *testing.T) {
	_, ts := newFakeServer(t, Config{}, nil)
	resp, err := http.Get(ts.URL + "/api/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("audit without journal: %d, want 404", resp.StatusCode)
	}
}

// TestAuditChainSurvivesRestart: a restarted daemon extends the same
// chain, and the whole journal still verifies.
func TestAuditChainSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	sA, tsA := newJournaledServer(t, dir, Config{Workers: 1, AuditBatch: 2}, nil)
	runJobs(t, tsA.URL, 3)
	drainNow(t, sA)
	before, err := VerifyAuditLog(dir)
	if err != nil {
		t.Fatal(err)
	}

	sB, tsB := newJournaledServer(t, dir, Config{Workers: 1, AuditBatch: 2}, nil)
	runJobs(t, tsB.URL, 2)
	drainNow(t, sB)
	after, err := VerifyAuditLog(dir)
	if err != nil {
		t.Fatalf("journal broken across restart: %v", err)
	}
	if after.Terminal != before.Terminal+2 {
		t.Errorf("terminal records = %d, want %d", after.Terminal, before.Terminal+2)
	}
	if after.Batches <= before.Batches {
		t.Errorf("no new roots after restart: %d -> %d", before.Batches, after.Batches)
	}
	if after.Chain == before.Chain {
		t.Error("chain head did not advance across restart")
	}
}
