package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestAgentReregistersAfterHeartbeat404: a coordinator that stops
// recognising the worker (it restarted, or reaped the worker) answers
// the heartbeat with 404, and the agent registers again on its next
// tick.
func TestAgentReregistersAfterHeartbeat404(t *testing.T) {
	var mu sync.Mutex
	var calls []string
	reregistered := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		calls = append(calls, r.URL.Path)
		switch {
		case len(calls) == 2 && r.URL.Path == "/api/v1/cluster/heartbeat":
			// The first heartbeat finds a coordinator that forgot us.
			http.Error(w, "unknown worker", http.StatusNotFound)
		case len(calls) == 3 && r.URL.Path == "/api/v1/cluster/register":
			var req RegisterRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.ID != "w1" || req.URL != "http://w1" {
				t.Errorf("re-register payload = %+v (%v)", req, err)
			}
			close(reregistered)
		}
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	a := &Agent{Coordinator: ts.URL, Self: "http://w1", ID: "w1", Interval: time.Millisecond}
	go func() {
		defer close(done)
		a.Run(ctx)
	}()
	select {
	case <-reregistered:
	case <-time.After(10 * time.Second):
		t.Error("agent never re-registered after a heartbeat 404")
	}
	cancel()
	<-done

	mu.Lock()
	defer mu.Unlock()
	want := []string{"/api/v1/cluster/register", "/api/v1/cluster/heartbeat", "/api/v1/cluster/register"}
	if len(calls) < len(want) {
		t.Fatalf("calls = %v, want a prefix %v", calls, want)
	}
	for i, path := range want {
		if calls[i] != path {
			t.Fatalf("calls = %v, want a prefix %v", calls, want)
		}
	}
}

// TestHTTPExecutorNon200IsError: a worker that answers with anything
// but 200 did not answer the point, so the walk must move on.
func TestHTTPExecutorNon200IsError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	if res, err := (&HTTPExecutor{}).Execute(context.Background(), ts.URL, Point{}, "key-x"); err == nil {
		t.Fatalf("Execute = %+v, nil error; want an error for HTTP 503", res)
	}
}

// TestHTTPExecutorVerdictFailureIsTerminal: a 200 carrying a failed
// verdict is the point's answer, not a worker failure — the nil error
// stops the walk from asking another worker the same question.
func TestHTTPExecutorVerdictFailureIsTerminal(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/v1/cluster/execute" {
			t.Errorf("path = %s", r.URL.Path)
		}
		_ = json.NewEncoder(w).Encode(PointResult{Key: "key-x", Err: "assemble: bad opcode"})
	}))
	defer ts.Close()
	res, err := (&HTTPExecutor{}).Execute(context.Background(), ts.URL, Point{Source: "bogus"}, "key-x")
	if err != nil {
		t.Fatalf("Execute error = %v, want nil for a 200", err)
	}
	if res.Err != "assemble: bad opcode" || res.Key != "key-x" {
		t.Fatalf("result = %+v, want the failed verdict", res)
	}
}
