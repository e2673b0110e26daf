package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"dynppr"
)

// APIError is a non-2xx response decoded from the server's error envelope.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's suggested backoff, decoded from the
	// Retry-After header of a 429 (overload, rate limit) or a 503
	// (degraded persistence); zero when the server sent none.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("httpapi: server returned %d: %s", e.StatusCode, e.Message)
}

// IsOverloaded reports whether the error is a 429 Too Many Requests — the
// server shed the request (pipeline saturation or rate limiting) and it is
// safe to retry after the suggested backoff.
func IsOverloaded(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.StatusCode == http.StatusTooManyRequests
}

// IsDegraded reports whether the error is a 503 carrying a Retry-After —
// the server's persistence is degraded, the write had no effect, and a
// retry after the suggested backoff will succeed once the recovery probe
// has healed the storage stack. A 503 without Retry-After (service closed,
// persistence failed permanently) is not retryable and returns false.
func IsDegraded(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) &&
		ae.StatusCode == http.StatusServiceUnavailable &&
		ae.RetryAfter > 0
}

// Client talks to a dppr-httpd server. It is safe for concurrent use: the
// underlying http.Client pools connections, so one Client shared by many
// goroutines is the intended load-generation setup.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient builds a client for the server at base (e.g.
// "http://127.0.0.1:8080"). A nil httpClient selects one with a 30s request
// timeout.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	return &Client{base: base, hc: httpClient}
}

// do issues the request and decodes the JSON response into out, translating
// non-2xx responses to *APIError.
func (c *Client) do(method, path string, body, out any) error {
	var reqBody io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		reqBody = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, reqBody)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var envelope ErrorResponse
		msg := resp.Status
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err == nil && envelope.Error != "" {
			msg = envelope.Error
		}
		apiErr := &APIError{StatusCode: resp.StatusCode, Message: msg}
		if raw := resp.Header.Get("Retry-After"); raw != "" {
			if secs, err := strconv.Atoi(raw); err == nil && secs >= 0 {
				apiErr.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Health checks GET /healthz.
func (c *Client) Health() error {
	return c.do(http.MethodGet, "/healthz", nil, nil)
}

// Stats fetches GET /stats.
func (c *Client) Stats() (StatsResponse, error) {
	var out StatsResponse
	err := c.do(http.MethodGet, "/stats", nil, &out)
	return out, err
}

// Sources fetches the tracked sources.
func (c *Client) Sources() ([]dynppr.VertexID, error) {
	var out SourcesResponse
	if err := c.do(http.MethodGet, "/sources", nil, &out); err != nil {
		return nil, err
	}
	return out.Sources, nil
}

// UpdateSources adds and removes tracked sources and returns the resulting
// source list.
func (c *Client) UpdateSources(add, remove []dynppr.VertexID) ([]dynppr.VertexID, error) {
	var out SourcesResponse
	err := c.do(http.MethodPost, "/sources", SourcesRequest{Add: add, Remove: remove}, &out)
	if err != nil {
		return nil, err
	}
	return out.Sources, nil
}

// TopK fetches the top-k ranking towards source.
func (c *Client) TopK(source dynppr.VertexID, k int) (TopKResult, error) {
	q := url.Values{}
	q.Set("source", strconv.Itoa(int(source)))
	q.Set("k", strconv.Itoa(k))
	var out TopKResult
	err := c.do(http.MethodGet, "/topk?"+q.Encode(), nil, &out)
	return out, err
}

// Estimate fetches one PPR estimate.
func (c *Client) Estimate(source, v dynppr.VertexID) (EstimateResult, error) {
	q := url.Values{}
	q.Set("source", strconv.Itoa(int(source)))
	q.Set("v", strconv.Itoa(int(v)))
	var out EstimateResult
	err := c.do(http.MethodGet, "/estimate?"+q.Encode(), nil, &out)
	return out, err
}

// Query issues a batch of reads in one round trip; results come back in
// request order with per-query errors inline.
func (c *Client) Query(queries []Query) ([]QueryResult, error) {
	var out QueryResponse
	err := c.do(http.MethodPost, "/query", QueryRequest{Queries: queries}, &out)
	if err != nil {
		return nil, err
	}
	return out.Results, nil
}

// Checkpoint asks the server to checkpoint its durable state and returns
// the WAL sequence number the new checkpoint covers. Servers running
// without a data directory answer 409.
func (c *Client) Checkpoint() (CheckpointResponse, error) {
	var out CheckpointResponse
	err := c.do(http.MethodPost, "/checkpoint", nil, &out)
	return out, err
}

// Metrics fetches GET /metrics and returns the raw Prometheus text
// exposition (parse it with promexp.ParseText when structure is needed).
func (c *Client) Metrics() (string, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{StatusCode: resp.StatusCode, Message: string(body)}
	}
	return string(body), nil
}

// ApplyEdges posts an edge-update batch and returns what it did.
func (c *Client) ApplyEdges(updates []Update) (EdgesResponse, error) {
	var out EdgesResponse
	err := c.do(http.MethodPost, "/edges", EdgesRequest{Updates: updates}, &out)
	return out, err
}
