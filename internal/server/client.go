package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/geo"
)

// Client is a typed HTTP client for the E-Sharing API. It makes one
// round trip per call and returns non-OK responses as *StatusError.
type Client struct {
	base string
	http *http.Client
}

// NewClient builds a client against baseURL (e.g. "http://localhost:8080").
// A nil httpClient uses http.DefaultClient.
func NewClient(baseURL string, httpClient *http.Client) (*Client, error) {
	if baseURL == "" {
		return nil, fmt.Errorf("server: empty base URL")
	}
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: baseURL, http: httpClient}, nil
}

// Place submits a trip destination and returns the parking decision.
func (c *Client) Place(ctx context.Context, dest geo.Point) (PlaceResponse, error) {
	var out PlaceResponse
	err := c.do(ctx, http.MethodPost, "/v1/requests", PlaceRequest{Dest: dest}, &out)
	return out, err
}

// Stations fetches the established parking locations.
func (c *Client) Stations(ctx context.Context) ([]geo.Point, error) {
	var out StationsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stations", nil, &out); err != nil {
		return nil, err
	}
	return out.Stations, nil
}

// Stats fetches backend counters.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var out StatsResponse
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// Health checks the backend liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, &map[string]string{})
}

func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var reader io.Reader
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("encode %s %s: %w", method, path, err)
		}
		reader = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, reader)
	if err != nil {
		return fmt.Errorf("build %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %w", method, path, readStatusError(resp))
	}
	decodeErr := json.NewDecoder(resp.Body).Decode(out)
	drainClose(resp.Body)
	if decodeErr != nil {
		return fmt.Errorf("decode %s %s response: %w", method, path, decodeErr)
	}
	return nil
}

// StatusError is the typed error Client returns for non-OK responses,
// exposing the status code and the server's error message to callers.
type StatusError struct {
	Status  int
	Message string // server-provided error body, if any
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("status %d: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("status %d", e.Status)
}

// readStatusError converts a non-OK response into a *StatusError,
// draining the body so the underlying connection stays reusable.
func readStatusError(resp *http.Response) *StatusError {
	se := &StatusError{Status: resp.StatusCode}
	var apiErr errorBody
	if decodeErr := json.NewDecoder(resp.Body).Decode(&apiErr); decodeErr == nil {
		se.Message = apiErr.Error
	}
	drainClose(resp.Body)
	return se
}

// drainClose discards up to 64 KiB of unread body before closing so the
// HTTP transport can reuse the keep-alive connection; without the drain
// every error response would tear down and re-dial the connection,
// which compounds exactly when the server is shedding load.
func drainClose(body io.ReadCloser) {
	_, _ = io.CopyN(io.Discard, body, 64<<10)
	_ = body.Close()
}
