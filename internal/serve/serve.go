// Package serve is the estimation service layer: an embeddable HTTP
// server (and the cmd/ecserved daemon around it) that turns the
// deterministic estimators — the corpus runners of internal/bench and
// the design-space sweep engine of internal/explore — into a batched
// job-serving system.
//
// The load-bearing idea is that estimation here is a pure function:
// the simulators are deterministic (the golden gate pins them down to
// IEEE-754 bit patterns), so a request can be canonicalized, hashed
// into a content address (workload bytes × layer × fault plan × config
// × code version) and its result cached and shared. Concurrent
// identical requests are deduplicated singleflight-style — N in-flight
// clients share one compute — and a cache hit returns bytes identical
// to a fresh compute.
//
// Production serving behavior: computes run on a bounded worker pool
// behind a bounded queue (overflow answers 429 with Retry-After),
// per-request deadlines propagate as context cancellation into the
// sweep engine, shutdown drains in-flight jobs before returning, and a
// per-server metrics registry is surfaced at /metricz.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Options tunes a Server. The zero value is usable: one compute worker
// per CPU, a queue twice that deep, 1024 cached results and a one
// minute default deadline.
type Options struct {
	// Workers is the number of concurrent computes; <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the job queue feeding the workers; a full
	// queue answers 429. <= 0 selects 2×Workers.
	QueueDepth int
	// CacheEntries bounds the content-addressed result cache; <= 0
	// selects 1024.
	CacheEntries int
	// DefaultTimeout bounds computes whose request carries no
	// deadline_ms; <= 0 selects one minute.
	DefaultTimeout time.Duration
	// SweepWorkers is the worker count handed to the sweep engine for
	// each sweep compute; <= 0 selects runtime.GOMAXPROCS(0).
	SweepWorkers int
}

// task is one scheduled compute bound to its cache entry.
type task struct {
	kind string // metrics endpoint label
	e    *entry
	ctx  context.Context
	stop context.CancelFunc
	run  func(context.Context) ([]byte, error)
}

// Job is the async handle on a queued sweep, the unit GET /v1/jobs/{id}
// reports. Completed jobs pin their own copy of the result body so it
// stays retrievable even if the cache entry is evicted.
type Job struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Key    string `json:"key"`
	Status string `json:"status"` // "pending", "done" or "failed"
	Error  string `json:"error,omitempty"`

	body []byte
	code int // HTTP status of a failed job, from statusFor
}

// maxJobs bounds the completed-job registry; the oldest finished jobs
// are dropped first.
const maxJobs = 256

// Server is the embeddable estimation service.
type Server struct {
	opts  Options
	reg   *metrics.ServerRegistry
	cache *Cache
	queue chan *task
	mux   *http.ServeMux

	qmu      sync.Mutex // guards draining and queue admission
	draining bool
	taskWg   sync.WaitGroup // accepted, not-yet-finished tasks
	workerWg sync.WaitGroup
	jobWg    sync.WaitGroup

	jobMu  sync.Mutex
	jobs   map[string]*Job
	jobIDs []string // insertion order, for bounded retention
	jobSeq uint64

	// computeHook, when set, runs at the start of every compute on the
	// worker goroutine — a test seam for making computes observable or
	// arbitrarily slow.
	computeHook func(kind string)
}

// Sentinel serving errors, mapped onto HTTP statuses by respond.
var (
	errOverloaded = errors.New("serve: job queue full")
	errDraining   = errors.New("serve: shutting down")
)

// New creates a Server and starts its worker pool. Call Close to drain
// and stop it.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 2 * opts.Workers
	}
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = 1024
	}
	if opts.DefaultTimeout <= 0 {
		opts.DefaultTimeout = time.Minute
	}
	if opts.SweepWorkers <= 0 {
		opts.SweepWorkers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		opts:  opts,
		reg:   metrics.NewServer(),
		cache: NewCache(opts.CacheEntries),
		queue: make(chan *task, opts.QueueDepth),
		jobs:  make(map[string]*Job),
	}
	s.mux = http.NewServeMux()
	for i := range routes {
		s.mux.HandleFunc("POST /v1/"+routes[i].Name, s.handle(&routes[i]))
	}
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metricz", s.handleMetricz)
	for i := 0; i < opts.Workers; i++ {
		s.workerWg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the server's metrics registry so wrapping layers
// (the cluster router) account their peer traffic in the same /metricz.
func (s *Server) Registry() *metrics.ServerRegistry { return s.reg }

// SetComputeHook installs a hook invoked at the start of every queued
// compute, before any work happens — a test seam (the cluster tests
// gate a peer's compute on it to kill the peer mid-sweep
// deterministically). Must be set before the server takes traffic.
func (s *Server) SetComputeHook(hook func(kind string)) { s.computeHook = hook }

// CacheGet peeks the content-addressed cache: the local tier of the
// cluster's two-tier lookup. It does not join in-flight computes.
func (s *Server) CacheGet(key string) ([]byte, bool) { return s.cache.peek(key) }

// CachePut stores a completed body under key — how peer-fetched bytes
// enter the local tier so they replay verbatim from here on.
func (s *Server) CachePut(key string, body []byte) {
	s.reg.Evicted(s.cache.insert(key, body))
}

// Close drains the server: new work is refused with 503, every
// accepted job runs to completion, then the workers stop. It is the
// graceful-shutdown half; pair it with http.Server.Shutdown for the
// connection half.
func (s *Server) Close() {
	s.qmu.Lock()
	already := s.draining
	s.draining = true
	s.qmu.Unlock()
	if already {
		return
	}
	s.taskWg.Wait() // accepted jobs finish
	close(s.queue)
	s.workerWg.Wait()
	s.jobWg.Wait()
}

// worker consumes the bounded queue. Each task's result is committed
// to the cache exactly once, waking every deduplicated waiter.
func (s *Server) worker() {
	defer s.workerWg.Done()
	for t := range s.queue {
		if s.computeHook != nil {
			s.computeHook(t.kind)
		}
		body, err := t.run(t.ctx)
		t.stop()
		evicted := s.cache.commit(t.e, body, err)
		s.reg.Evicted(evicted)
		s.reg.Compute(err != nil)
		s.taskWg.Done()
	}
}

// enqueue admits a task into the bounded queue: 0 on success,
// otherwise the HTTP status to answer (429 overloaded, 503 draining).
// The task is counted before the send: a worker may finish it before
// the send returns, and its Done must never precede the Add.
func (s *Server) enqueue(t *task) int {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.draining {
		return http.StatusServiceUnavailable
	}
	s.taskWg.Add(1)
	select {
	case s.queue <- t:
		return 0
	default:
		s.taskWg.Done()
		return http.StatusTooManyRequests
	}
}

// deadline resolves a request's effective compute deadline.
func (s *Server) deadline(deadlineMs int64) time.Duration {
	if deadlineMs > 0 {
		return time.Duration(deadlineMs) * time.Millisecond
	}
	return s.opts.DefaultTimeout
}

// statusFor maps a failed compute onto its client-visible HTTP status.
// This mapping is part of the protocol contract (pinned by a table
// test): canonicalization failures are 400 before work is scheduled,
// backpressure answers 429, drain and cancellation 503, a deadline that
// fired 504 — and only genuinely unexplained failures fall through to
// 500. Peers forwarding requests rely on these codes to tell "retry
// elsewhere" from "the request itself is bad".
func statusFor(err error) int {
	switch {
	case errors.Is(err, errOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// schedule runs the singleflight admission for key: a cached body is
// returned immediately (ServeHit); otherwise the caller either joins
// an in-flight compute (ServeDedup) or leads a fresh one (ServeMiss)
// scheduled on the bounded queue, and in both cases blocks until the
// entry completes or the client context is done. A non-zero status
// return is the HTTP status to answer; backpressure (429, 503) is
// counted on /metricz here.
func (s *Server) schedule(ctx context.Context, kind, key string, deadlineMs int64,
	run func(context.Context) ([]byte, error)) (body []byte, outcome metrics.ServeOutcome, status int, err error) {
	e, leader, cached := s.cache.join(key)
	if cached != nil {
		return cached, metrics.ServeHit, 0, nil
	}
	outcome = metrics.ServeDedup
	if leader {
		outcome = metrics.ServeMiss
		if status, err = s.admit(kind, e, deadlineMs, run); status != 0 {
			return nil, outcome, status, err
		}
	}
	defer s.cache.leave(e)
	select {
	case <-e.done:
		if e.err != nil {
			status = statusFor(e.err)
			s.reg.Rejected(status) // counts 429 and 503 only
			return nil, outcome, status, e.err
		}
		return e.body, outcome, 0, nil
	case <-ctx.Done():
		return nil, outcome, http.StatusRequestTimeout, ctx.Err()
	}
}

// admit puts the compute that leads entry e on the bounded queue. A
// refusal abandons e, failing every joined waiter with the cause, counts
// the rejection and returns the status to answer (429 overloaded, 503
// draining).
func (s *Server) admit(kind string, e *entry, deadlineMs int64,
	run func(context.Context) ([]byte, error)) (int, error) {
	cctx, cancel := context.WithTimeout(context.Background(), s.deadline(deadlineMs))
	s.cache.setCancel(e, cancel)
	st := s.enqueue(&task{kind: kind, e: e, ctx: cctx, stop: cancel, run: run})
	if st == 0 {
		return 0, nil
	}
	cancel()
	cause := errOverloaded
	if st == http.StatusServiceUnavailable {
		cause = errDraining
	}
	s.cache.abandon(e, cause)
	s.cache.leave(e)
	s.reg.Rejected(st)
	return st, cause
}

// Do exposes the singleflight/queue machinery to wrapping layers: the
// cluster router schedules a distributed sweep's assembly under the
// sweep key exactly as a local compute would be, so concurrent
// identical sweeps dedup onto one fan-out and the assembled body lands
// in the local cache tier.
func (s *Server) Do(ctx context.Context, kind, key string, deadlineMs int64,
	run func(context.Context) ([]byte, error)) ([]byte, metrics.ServeOutcome, int, error) {
	return s.schedule(ctx, kind, key, deadlineMs, run)
}

// DoInline is singleflight admission without the bounded queue: the
// compute runs on the caller's goroutine. It exists for the cluster's
// work-stealing self-lane — a distributed sweep already occupies a
// queue worker, so its locally-executed configurations must not also
// contend for queue slots (that would deadlock a full queue against
// itself). Cache and dedup semantics are identical to Do.
func (s *Server) DoInline(ctx context.Context, key string,
	run func(context.Context) ([]byte, error)) ([]byte, metrics.ServeOutcome, error) {
	e, leader, cached := s.cache.join(key)
	if cached != nil {
		return cached, metrics.ServeHit, nil
	}
	if leader {
		body, err := run(ctx)
		evicted := s.cache.commit(e, body, err)
		s.reg.Evicted(evicted)
		s.reg.Compute(err != nil)
		s.cache.leave(e)
		return body, metrics.ServeMiss, err
	}
	defer s.cache.leave(e)
	select {
	case <-e.done:
		return e.body, metrics.ServeDedup, e.err
	case <-ctx.Done():
		return nil, metrics.ServeDedup, ctx.Err()
	}
}

// RespondError writes a JSON error body with the given status, adding
// Retry-After on the backpressure statuses so well-behaved clients
// pace themselves. The cluster router answers its errors through it
// too, so both layers render errors identically.
func RespondError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// startJob answers an async sweep: admission happens now (so
// backpressure still applies), completion is observed by a detached
// waiter that parks the result in the job registry.
func (s *Server) startJob(w http.ResponseWriter, kind, key string, deadlineMs int64,
	run func(context.Context) ([]byte, error)) {
	e, leader, cached := s.cache.join(key)
	s.jobMu.Lock()
	s.jobSeq++
	job := &Job{ID: "job-" + strconv.FormatUint(s.jobSeq, 10), Kind: kind, Key: key, Status: "pending"}
	s.jobs[job.ID] = job
	s.jobIDs = append(s.jobIDs, job.ID)
	for len(s.jobIDs) > maxJobs {
		delete(s.jobs, s.jobIDs[0])
		s.jobIDs = s.jobIDs[1:]
	}
	s.jobMu.Unlock()

	finish := func(body []byte, err error) {
		s.jobMu.Lock()
		defer s.jobMu.Unlock()
		if err != nil {
			job.Status, job.Error, job.code = "failed", err.Error(), statusFor(err)
			return
		}
		job.Status, job.body = "done", body
	}

	if cached != nil {
		s.reg.Outcome(kind, metrics.ServeHit, 0)
		finish(cached, nil)
	} else {
		if leader {
			if st, cause := s.admit(kind, e, deadlineMs, run); st != 0 {
				finish(nil, cause)
				RespondError(w, st, cause)
				return
			}
			s.reg.Outcome(kind, metrics.ServeMiss, 0)
		} else {
			s.reg.Outcome(kind, metrics.ServeDedup, 0)
		}
		s.jobWg.Add(1)
		go func() {
			defer s.jobWg.Done()
			defer s.cache.leave(e)
			<-e.done
			finish(e.body, e.err)
		}()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(job)
}

func (s *Server) lookupJob(id string) *Job {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.reg.Request("jobs")
	job := s.lookupJob(r.PathValue("id"))
	if job == nil {
		RespondError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", r.PathValue("id")))
		return
	}
	s.jobMu.Lock()
	copy := *job
	s.jobMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(copy)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	s.reg.Request("jobs")
	job := s.lookupJob(r.PathValue("id"))
	if job == nil {
		RespondError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", r.PathValue("id")))
		return
	}
	s.jobMu.Lock()
	status, body, errMsg, code := job.Status, job.body, job.Error, job.code
	s.jobMu.Unlock()
	switch status {
	case "done":
		rt, _ := RouteFor(job.Kind)
		w.Header().Set("Content-Type", rt.ContentType)
		w.Header().Set("X-Key", job.Key)
		w.Write(body)
	case "failed":
		// Failed jobs replay the status their synchronous twin would
		// have answered (504 deadline, 503 drain, ...), not a blanket 500.
		if code == 0 {
			code = http.StatusInternalServerError
		}
		RespondError(w, code, errors.New(errMsg))
	default:
		RespondError(w, http.StatusConflict, fmt.Errorf("serve: job %s still pending", job.ID))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.qmu.Lock()
	draining := s.draining
	s.qmu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(map[string]any{"ok": !draining, "version": Version, "draining": draining})
}

func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.reg.Snapshot().Table())
	fmt.Fprintf(w, "  cache         entries=%d capacity=%d\n", s.cache.Len(), s.opts.CacheEntries)
	fmt.Fprintf(w, "  version       %s\n", Version)
}
