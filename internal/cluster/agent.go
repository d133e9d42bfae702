package cluster

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"
)

// Wire shapes shared by the coordinator's HTTP surface and the worker
// agent.

// RegisterRequest is the POST /api/v1/cluster/register payload.
type RegisterRequest struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// HeartbeatRequest is the POST /api/v1/cluster/heartbeat payload.
type HeartbeatRequest struct {
	ID string `json:"id"`
}

// ExecuteRequest is the POST /api/v1/cluster/execute payload. The
// worker derives the point's cache key itself (Point.Key), the same
// address the coordinator files the verdict under.
type ExecuteRequest struct {
	Point Point `json:"point"`
}

// Agent is the worker side of the cluster protocol: it registers the
// daemon with the coordinator and keeps the registration alive with
// periodic heartbeats, re-registering whenever the coordinator stops
// recognising it (coordinator restart, or this worker was reaped while
// partitioned).
type Agent struct {
	// Coordinator is the coordinator's base URL, Self the URL this
	// worker advertises for execute dispatches.
	Coordinator string
	Self        string
	// ID identifies the worker (default: Self).
	ID string
	// Interval is the heartbeat period (default 1s).
	Interval time.Duration
	Client   *http.Client
	Logger   *slog.Logger
}

// Run registers and heartbeats until ctx is cancelled. Failures are
// retried on the next tick — a worker partitioned from its coordinator
// keeps serving local requests and rejoins when the partition heals.
func (a *Agent) Run(ctx context.Context) {
	id := a.ID
	if id == "" {
		id = a.Self
	}
	interval := a.Interval
	if interval <= 0 {
		interval = time.Second
	}
	log := a.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}

	registered := false
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		if !registered {
			if err := a.post(ctx, "/api/v1/cluster/register", RegisterRequest{ID: id, URL: a.Self}); err != nil {
				log.Warn("cluster register failed", "coordinator", a.Coordinator, "err", err)
			} else {
				registered = true
				log.Info("registered with coordinator", "coordinator", a.Coordinator, "id", id)
			}
		} else if err := a.post(ctx, "/api/v1/cluster/heartbeat", HeartbeatRequest{ID: id}); err != nil {
			// An unknown-worker rejection or a transport failure both mean
			// the registration can no longer be trusted; re-register.
			registered = false
			log.Warn("cluster heartbeat failed, re-registering", "err", err)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

func (a *Agent) post(ctx context.Context, path string, payload any) error {
	client := a.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	_, err := Call(ctx, client, http.MethodPost, strings.TrimRight(a.Coordinator, "/")+path, payload)
	return err
}

// Call is the one HTTP exchange of the cluster protocol: it sends
// payload as JSON (no body when nil) and returns the response body, read
// up to 16 MiB. A status other than 200 or 204 is an error.
func Call(ctx context.Context, client *http.Client, method, url string, payload any) ([]byte, error) {
	var body io.Reader
	if payload != nil {
		data, err := json.Marshal(payload)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err == nil && resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		err = fmt.Errorf("cluster: %s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, err
}

// HTTPExecutor dispatches points to workers over the msd HTTP surface.
type HTTPExecutor struct {
	Client *http.Client
}

// Execute posts the point to the worker's execute endpoint. The
// response carries a terminal PointResult — possibly with a
// verdict-level Err — while transport failures and non-200 statuses
// come back as errors that move the point to its next-ranked worker.
func (e *HTTPExecutor) Execute(ctx context.Context, workerURL string, p Point, _ string) (PointResult, error) {
	client := cmp.Or(e.Client, http.DefaultClient)
	data, err := Call(ctx, client, http.MethodPost, strings.TrimRight(workerURL, "/")+"/api/v1/cluster/execute", ExecuteRequest{Point: p})
	if err != nil {
		return PointResult{}, err
	}
	var res PointResult
	if err := json.Unmarshal(data, &res); err != nil {
		return PointResult{}, fmt.Errorf("cluster: decode execute response: %w", err)
	}
	return res, nil
}
