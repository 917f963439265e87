package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"
)

// The route table: every cache-backed compute endpoint is one row, and
// every layer that handles a compute request runs from it — the serve
// handler, Parse (the one keying entry point) and the cluster router.
// Adding an endpoint is adding a row.

// MaxBodyBytes caps a compute request body. The strict decode step
// enforces it, and the cluster reads peer bodies under the same cap, so
// a single node and a cluster node refuse the same bodies.
const MaxBodyBytes = 4 << 20

const ndjson = "application/x-ndjson"

// Route is one compute endpoint, served at POST /v1/<Name>.
type Route struct {
	// Name is the path suffix and the endpoint's /metricz label.
	Name string
	// ContentType is the Content-Type of a 200 body.
	ContentType string
	// Check reads a 200 body relayed from a peer through the strict body
	// reader before it is cached or served: a body cut short wraps
	// ErrTruncatedBody (retry elsewhere), any other error is corruption
	// (fail fast).
	Check func(body []byte) error
	// parse is the row's strict decode → canonicalize → key step. s binds
	// the compute; w, when set, is told about an oversize body.
	parse func(s *Server, w http.ResponseWriter, body io.ReadCloser) (Request, error)
}

var routes = []Route{
	{Name: "estimate", ContentType: "application/json", Check: check[struct{}, EstimateResponse]("estimate", nil),
		parse: endpoint(canonicalizeEstimate, canonEstimate.key, (*Server).computeEstimate)},
	{Name: "sweep", ContentType: ndjson, Check: check[SweepRow]("sweep", sweepDone),
		parse: endpoint(canonicalizeSweep, canonSweep.key, (*Server).computeSweep)},
	{Name: "batch", ContentType: ndjson, Check: check[BatchRow]("batch", batchDone),
		parse: endpoint(canonicalizeBatch, canonBatch.key, (*Server).computeBatch)},
	{Name: "config", ContentType: ndjson, Check: check[struct{}, SweepRow]("config", nil),
		parse: endpoint(canonicalizeConfig, canonConfig.key, (*Server).computeConfig)},
}

// Routes returns the route table.
func Routes() []Route { return slices.Clone(routes) }

// RouteFor returns the row of the named endpoint.
func RouteFor(name string) (Route, bool) {
	for _, rt := range routes {
		if rt.Name == name {
			return rt, true
		}
	}
	return Route{}, false
}

// Request is a compute request that passed its row's strict decode →
// canonicalize → key step.
type Request struct {
	// Key is the request's content address.
	Key string
	// Body is the decoded request: *EstimateRequest, *SweepRequest,
	// *BatchRequest or *ConfigRequest.
	Body any
	// DeadlineMs is the request's deadline_ms; 0 uses the server
	// default.
	DeadlineMs int64
	// Async is set when the request asks to run as a job; only
	// SweepRequest can.
	Async bool

	run func(context.Context) ([]byte, error) // bound to the parsing server; nil from Parse
}

// Parse runs the named endpoint's strict decode → canonicalize → key
// step on a raw body: the step its handler runs, so every error is the
// 400 the handler would answer. The cluster router keys requests
// through it.
func Parse(endpoint string, body []byte) (Request, error) {
	rt, ok := RouteFor(endpoint)
	if !ok {
		return Request{}, fmt.Errorf("serve: unknown endpoint %q", endpoint)
	}
	return rt.parse(nil, nil, io.NopCloser(bytes.NewReader(body)))
}

// request is what every row's request type reports to the pipeline.
type request interface {
	meta() (deadlineMs int64, async bool)
}

func (r EstimateRequest) meta() (int64, bool) { return r.DeadlineMs, false }
func (r SweepRequest) meta() (int64, bool)    { return r.DeadlineMs, r.Async }
func (r BatchRequest) meta() (int64, bool)    { return r.DeadlineMs, false }
func (r ConfigRequest) meta() (int64, bool)   { return r.DeadlineMs, false }

// endpoint builds a row's parse step from its typed parts.
func endpoint[R request, C any](canon func(R) (C, error), key func(C) string,
	compute func(*Server, context.Context, string, C) ([]byte, error),
) func(*Server, http.ResponseWriter, io.ReadCloser) (Request, error) {
	return func(s *Server, w http.ResponseWriter, body io.ReadCloser) (Request, error) {
		req := new(R)
		if err := decode(w, body, req); err != nil {
			return Request{}, err
		}
		c, err := canon(*req)
		if err != nil {
			return Request{}, err
		}
		k := key(c)
		deadline, async := (*req).meta()
		out := Request{Key: k, Body: req, DeadlineMs: deadline, Async: async}
		if s != nil {
			out.run = func(ctx context.Context) ([]byte, error) { return compute(s, ctx, k, c) }
		}
		return out, nil
	}
}

// decode is the one strict decode step: the body must be a single JSON
// object of the row's request type, at most MaxBodyBytes long, with no
// unknown field and nothing but whitespace after it.
func decode(w http.ResponseWriter, body io.ReadCloser, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: bad request body: %w", err)
	}
	switch err := dec.Decode(&struct{}{}); {
	case err == io.EOF:
		return nil
	case errors.As(err, new(*http.MaxBytesError)):
		return fmt.Errorf("serve: bad request body: %w", err)
	}
	return errors.New("serve: bad request body: data after the request object")
}

// handle is the one compute handler: the row's parse step (400 on any
// failure), then singleflight admission — as a job when the request is
// async, else synchronously — and the body with its cache verdict.
func (s *Server) handle(rt *Route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.reg.Request(rt.Name)
		req, err := rt.parse(s, w, r.Body)
		if err != nil {
			RespondError(w, http.StatusBadRequest, err)
			return
		}
		if req.Async {
			s.startJob(w, rt.Name, req.Key, req.DeadlineMs, req.run)
			return
		}
		body, outcome, status, err := s.schedule(r.Context(), rt.Name, req.Key, req.DeadlineMs, req.run)
		if err != nil {
			RespondError(w, status, err)
			return
		}
		s.reg.Outcome(rt.Name, outcome, uint64(time.Since(start).Microseconds()))
		w.Header().Set("Content-Type", rt.ContentType)
		w.Header().Set("X-Cache", outcome.String())
		w.Header().Set("X-Key", req.Key)
		w.Write(body)
	}
}
