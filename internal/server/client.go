package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
)

// Client talks to a running model-checking service (cmd/promised). It is
// re-exported as promising.Client.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the service at baseURL
// (e.g. "http://127.0.0.1:8419"). A nil hc selects http.DefaultClient.
func NewClient(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: hc}
}

// do issues one JSON request. in == nil sends no body; out == nil ignores
// the response body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var ae apiError
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(raw, &ae) == nil && ae.Error != "" {
			return fmt.Errorf("promised: %s %s: %s (HTTP %d)", method, path, ae.Error, resp.StatusCode)
		}
		return fmt.Errorf("promised: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Check runs one test synchronously.
func (c *Client) Check(ctx context.Context, req CheckRequest) (*TestReport, error) {
	var tr TestReport
	if err := c.do(ctx, http.MethodPost, "/v1/check", req, &tr); err != nil {
		return nil, err
	}
	return &tr, nil
}

// Batch submits a batch job and returns its acknowledgement.
func (c *Client) Batch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	var br BatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/batch", req, &br); err != nil {
		return nil, err
	}
	return &br, nil
}

// Fuzz starts a differential fuzzing campaign job; poll Job (or stream
// /v1/jobs/{id}/events) for progress and findings.
func (c *Client) Fuzz(ctx context.Context, req FuzzRequest) (*BatchResponse, error) {
	var br BatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/fuzz", req, &br); err != nil {
		return nil, err
	}
	return &br, nil
}

// Cluster submits a coordinated multi-peer exploration (POST /v1/cluster)
// to this daemon, which widens the test, splits the frontier and drives
// the peer set — cross-peer dedup, work-stealing rebalance and dead-peer
// retry included. Poll Job (or stream events) for the final report; the
// acknowledgement's Cells is the shard count.
func (c *Client) Cluster(ctx context.Context, req ClusterRequest) (*BatchResponse, error) {
	var br BatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/cluster", req, &br); err != nil {
		return nil, err
	}
	return &br, nil
}

// Job fetches a job's status and completed reports.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// CancelJob cancels a job, aborting its in-flight explorations.
func (c *Client) CancelJob(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Catalog lists the built-in canonical tests; withSource includes their
// litmus text.
func (c *Client) Catalog(ctx context.Context, withSource bool) ([]CatalogInfo, error) {
	path := "/v1/catalog"
	if withSource {
		path += "?source=1"
	}
	var out []CatalogInfo
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Health probes /healthz.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var h Health
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}
