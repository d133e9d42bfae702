package cluster

import (
	"bytes"
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
	body, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	url := strings.TrimRight(a.Coordinator, "/") + path
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	client := a.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("cluster: %s: HTTP %d", path, resp.StatusCode)
	}
	return nil
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
	body, err := json.Marshal(ExecuteRequest{Point: p})
	if err != nil {
		return PointResult{}, err
	}
	url := strings.TrimRight(workerURL, "/") + "/api/v1/cluster/execute"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return PointResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	client := e.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return PointResult{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return PointResult{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return PointResult{}, fmt.Errorf("cluster: execute on %s: HTTP %d: %s",
			workerURL, resp.StatusCode, bytes.TrimSpace(data))
	}
	var res PointResult
	if err := json.Unmarshal(data, &res); err != nil {
		return PointResult{}, fmt.Errorf("cluster: decode execute response: %w", err)
	}
	return res, nil
}
