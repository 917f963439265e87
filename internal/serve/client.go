package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Client is the thin HTTP client for a remote estimation server. Its
// one caller is jcexplore -remote, which runs synchronous sweeps.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8372".
	BaseURL string
}

// apiError decodes an error body into a useful message.
func apiError(resp *http.Response) error {
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("serve: %s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("serve: %s: %s", resp.Status, strings.TrimSpace(string(body)))
}

func (c *Client) post(ctx context.Context, path string, req any) (*http.Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	return http.DefaultClient.Do(hr)
}

// Sweep posts one synchronous sweep request and decodes the NDJSON
// stream.
func (c *Client) Sweep(ctx context.Context, req SweepRequest) ([]SweepRow, SweepTrailer, error) {
	req.Async = false
	resp, err := c.post(ctx, "/v1/sweep", req)
	if err != nil {
		return nil, SweepTrailer{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, SweepTrailer{}, apiError(resp)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, SweepTrailer{}, err
	}
	return ParseSweepBody(body)
}
