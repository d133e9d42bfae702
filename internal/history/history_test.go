package history

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"microsampler/internal/core"
)

func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func rec(label, kind string) Record {
	return Record{Label: label, Workload: "TAGE-HIST", Kind: kind, Summary: core.Summary{Leaky: kind == KindMatrix}}
}

func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	blob := []byte(`{"workload":"TAGE-HIST"}`)
	stored, err := s.Append(rec("aaa111", KindMatrix), map[string][]byte{"matrix": blob})
	if err != nil {
		t.Fatal(err)
	}
	if stored.Time == "" || stored.Artifacts["matrix"] != BlobKey(blob) {
		t.Fatalf("stored record incomplete: %+v", stored)
	}
	if _, err := s.Append(rec("bbb222", KindReport), nil); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r := openT(t, dir)
	recs := r.Records()
	if len(recs) != 2 || recs[0].Label != "aaa111" || recs[1].Label != "bbb222" {
		t.Fatalf("reopened records: %+v", recs)
	}
	got, err := r.Artifact(recs[0], "matrix")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("artifact round trip: %q, %v", got, err)
	}
	if _, err := r.Artifact(recs[1], "matrix"); err == nil {
		t.Fatal("missing artifact should error")
	}
}

// TestAppendKeepsFiledBlob appends the same artifact twice: the second
// Append finds the blob on disk with the same bytes and leaves the file
// as it was, same inode and same mtime. A blob whose bytes differ from
// its key's is filed again.
func TestAppendKeepsFiledBlob(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	blob := []byte(`{"workload":"TAGE-HIST"}`)
	if _, err := s.Append(rec("aaa111", KindReport), map[string][]byte{"digest": blob}); err != nil {
		t.Fatal(err)
	}
	key := BlobKey(blob)
	path := filepath.Join(dir, "blobs", key[:2], key+".bin")
	past := time.Date(2020, 1, 2, 3, 4, 5, 0, time.UTC)
	if err := os.Chtimes(path, past, past); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := s.Append(rec("bbb222", KindReport), map[string][]byte{"digest": blob})
	if err != nil {
		t.Fatal(err)
	}
	if stored.Artifacts["digest"] != key {
		t.Fatalf("second record names blob %q, want %q", stored.Artifacts["digest"], key)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) || !after.ModTime().Equal(past) {
		t.Errorf("second Append rewrote the blob: mtime %v, same file %v", after.ModTime(), os.SameFile(before, after))
	}

	if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(rec("ccc333", KindReport), map[string][]byte{"digest": blob}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, blob) {
		t.Errorf("damaged blob not filed again: %q, %v", got, err)
	}
}

func TestValidation(t *testing.T) {
	s := openT(t, t.TempDir())
	if _, err := s.Append(Record{Workload: "w", Kind: KindReport}, nil); err == nil {
		t.Error("empty label should be rejected")
	}
	if _, err := s.Append(Record{Label: "l", Workload: "w", Kind: "weird"}, nil); err == nil {
		t.Error("unknown kind should be rejected")
	}
}

// TestTruncatedTailSkipped is the crash-safety contract: a partial
// final index line — the write cut short by a crash — is dropped on
// reopen without losing any earlier record, and the store appends
// cleanly afterwards.
func TestTruncatedTailSkipped(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := s.Append(rec(fmt.Sprintf("c%d", i), KindReport), nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	idx := filepath.Join(dir, "index.jsonl")
	f, err := os.OpenFile(idx, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"label":"torn","workload":"TAGE`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := openT(t, dir)
	recs := r.Records()
	if len(recs) != 3 {
		t.Fatalf("after torn tail: %d records, want 3 (%+v)", len(recs), recs)
	}
	if _, err := r.Append(rec("after-crash", KindReport), nil); err != nil {
		t.Fatal(err)
	}
	r.Close()

	rr := openT(t, dir)
	if n := rr.Len(); n != 4 {
		t.Fatalf("after repair+append: %d records, want 4", n)
	}
	if got, ok := rr.Latest("after-crash", "", ""); !ok || got.Label != "after-crash" {
		t.Fatalf("appended record lost: %+v ok=%v", got, ok)
	}
}

// A final line that is complete JSON but lost its newline must be kept
// and re-terminated, not merged into the next append.
func TestUnterminatedFinalLineKept(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if _, err := s.Append(rec("one", KindReport), nil); err != nil {
		t.Fatal(err)
	}
	s.Close()

	idx := filepath.Join(dir, "index.jsonl")
	data, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(idx, bytes.TrimRight(data, "\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir)
	if r.Len() != 1 {
		t.Fatalf("unterminated record lost: %d", r.Len())
	}
	if _, err := r.Append(rec("two", KindReport), nil); err != nil {
		t.Fatal(err)
	}
	r.Close()

	rr := openT(t, dir)
	recs := rr.Records()
	if len(recs) != 2 || recs[0].Label != "one" || recs[1].Label != "two" {
		t.Fatalf("records merged or lost: %+v", recs)
	}
}

// A corrupt line in the middle of the index is not silently skipped —
// that would rewrite history.
func TestCorruptMiddleLineErrors(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if _, err := s.Append(rec("one", KindReport), nil); err != nil {
		t.Fatal(err)
	}
	s.Close()

	idx := filepath.Join(dir, "index.jsonl")
	f, err := os.OpenFile(idx, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(f, "not json at all")
	fmt.Fprintln(f, `{"label":"three","workload":"w","kind":"report"}`)
	f.Close()

	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt middle line: %v", err)
	}
}

// TestConcurrentAppendRead drives appends, listings, lookups and
// artifact loads from concurrent goroutines; the race detector pass in
// verify.sh makes this the store's thread-safety gate.
func TestConcurrentAppendRead(t *testing.T) {
	s := openT(t, t.TempDir())
	const writers, perWriter = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				blob := []byte(fmt.Sprintf(`{"w":%d,"i":%d}`, w, i))
				r := rec(fmt.Sprintf("w%d-i%d", w, i), KindMatrix)
				if _, err := s.Append(r, map[string][]byte{"matrix": blob}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				for _, r := range s.Records() {
					if r.Label == "" {
						t.Error("empty label observed")
						return
					}
					if len(r.Artifacts) > 0 {
						if _, err := s.Artifact(r, "matrix"); err != nil {
							t.Error(err)
							return
						}
					}
				}
				s.Latest("", "TAGE-HIST", KindMatrix)
			}
		}()
	}
	wg.Wait()
	if n := s.Len(); n != writers*perWriter {
		t.Fatalf("lost appends: %d records, want %d", n, writers*perWriter)
	}
}

func TestLatestFilters(t *testing.T) {
	s := openT(t, t.TempDir())
	seq := []Record{
		{Label: "a", Workload: "W1", Kind: KindReport},
		{Label: "a", Workload: "W1", Kind: KindMatrix},
		{Label: "b", Workload: "W2", Kind: KindMatrix},
		{Label: "a", Workload: "W2", Kind: KindReport},
	}
	for _, r := range seq {
		if _, err := s.Append(r, nil); err != nil {
			t.Fatal(err)
		}
	}
	if r, ok := s.Latest("a", "", ""); !ok || r.Workload != "W2" || r.Kind != KindReport {
		t.Errorf("Latest(a): %+v ok=%v", r, ok)
	}
	if r, ok := s.Latest("a", "W1", KindMatrix); !ok || r.Kind != KindMatrix {
		t.Errorf("Latest(a,W1,matrix): %+v ok=%v", r, ok)
	}
	if _, ok := s.Latest("c", "", ""); ok {
		t.Error("Latest(c) should miss")
	}
	if r, ok := s.Latest("", "", KindMatrix); !ok || r.Label != "b" {
		t.Errorf("Latest(kind=matrix): %+v ok=%v", r, ok)
	}
}

// TestRecordIndexBytes pins the index line of one fully populated
// record, captured before core.Summary replaced the record's own
// verdict fields: embedding the summary must not move a byte of an
// existing index.
func TestRecordIndexBytes(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	rec := Record{
		Label: "abc1234", Workload: "TAGE-HIST", Kind: KindMatrix,
		Time: "2026-01-02T03:04:05Z",
		Summary: core.Summary{
			Leaky: true, LeakyUnits: []string{"LQ-ADDR", "TAGE-PRED"},
			MaxV: 0.8125, Cells: 4, LeakyCells: []string{"predictor=tage"},
			Iterations: 240, SimCycles: 16316,
		},
		ElapsedMillis: 42,
	}
	if _, err := s.Append(rec, map[string][]byte{"matrix": []byte(`{"workload":"TAGE-HIST"}`)}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "index.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"label":"abc1234","workload":"TAGE-HIST","kind":"matrix","time":"2026-01-02T03:04:05Z",` +
		`"leaky":true,"leakyUnits":["LQ-ADDR","TAGE-PRED"],"maxCramersV":0.8125,"cells":4,` +
		`"leakyCells":["predictor=tage"],"iterations":240,"simCycles":16316,"elapsedMillis":42,` +
		`"artifacts":{"matrix":"a0c69cf0cb40d03a6b7b8d490462fcdd68187c1e3821aebbe9b46f56ba49edeb"}}` + "\n"
	if string(got) != want {
		t.Errorf("index line moved:\n got %s\nwant %s", got, want)
	}
}
