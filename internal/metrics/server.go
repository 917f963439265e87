package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ServeOutcome classifies how an estimation request was satisfied by
// the serving layer's content-addressed cache.
type ServeOutcome int

// Serve outcomes. Miss means the request led the compute (cold path);
// Dedup means it piggybacked on an identical in-flight compute; Hit
// means the result was already cached.
const (
	ServeMiss ServeOutcome = iota
	ServeDedup
	ServeHit
	NumServeOutcomes
)

// String returns the outcome mnemonic.
func (o ServeOutcome) String() string {
	switch o {
	case ServeMiss:
		return "miss"
	case ServeDedup:
		return "dedup"
	case ServeHit:
		return "hit"
	default:
		return "invalid"
	}
}

// ServerRegistry collects one estimation server's lifetime metrics:
// request and cache-outcome counters, compute accounting, backpressure
// rejections and per-outcome service latency. Unlike the per-run
// Registry it is long-lived and shared by concurrent handlers, so every
// method is safe for concurrent use. A nil *ServerRegistry is the
// disabled state, matching the package's nil-receiver discipline.
type ServerRegistry struct {
	mu sync.Mutex

	requests   map[string]uint64                    // by endpoint label
	outcomesBy map[string]*[NumServeOutcomes]uint64 // per-endpoint cache outcomes

	outcomes [NumServeOutcomes]uint64
	computes uint64 // computations actually executed
	failures uint64 // computations that returned an error
	evicted  uint64 // cache entries displaced by the capacity bound

	rejected429 uint64 // bounded-queue backpressure rejections
	rejected503 uint64 // refused while draining for shutdown

	// Cluster counters (multi-node ecserved; zero on a solo node).
	peerFetches uint64 // results served by fetching from a peer node
	peerErrors  uint64 // peer requests that failed (network, 5xx)
	steals      uint64 // sweep configurations computed for a remote coordinator
	requeues    uint64 // configurations requeued after a peer died mid-sweep

	latency [NumServeOutcomes]Histogram // service time in microseconds
}

// NewServer creates an enabled server registry.
func NewServer() *ServerRegistry {
	return &ServerRegistry{
		requests:   make(map[string]uint64),
		outcomesBy: make(map[string]*[NumServeOutcomes]uint64),
	}
}

// Request counts one request against an endpoint label ("estimate",
// "sweep", "jobs", ...).
func (s *ServerRegistry) Request(endpoint string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.requests[endpoint]++
	s.mu.Unlock()
}

// Outcome records how a request was satisfied — both globally and
// against its endpoint label — together with its service latency in
// microseconds. Every /v1/* route that consults the result cache must
// report through here, so per-endpoint hit/dedup/miss accounting stays
// complete as endpoints are added.
func (s *ServerRegistry) Outcome(endpoint string, o ServeOutcome, latencyUS uint64) {
	if s == nil || o < 0 || o >= NumServeOutcomes {
		return
	}
	s.mu.Lock()
	s.outcomes[o]++
	by := s.outcomesBy[endpoint]
	if by == nil {
		by = new([NumServeOutcomes]uint64)
		s.outcomesBy[endpoint] = by
	}
	by[o]++
	s.latency[o].Observe(latencyUS)
	s.mu.Unlock()
}

// PeerFetch records one result served by fetching the owning peer's
// cached or computed bytes instead of computing locally.
func (s *ServerRegistry) PeerFetch() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.peerFetches++
	s.mu.Unlock()
}

// PeerError records one failed peer request (connection refused, 5xx,
// truncated body) — the signal that routed work fell back to a local
// compute.
func (s *ServerRegistry) PeerError() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.peerErrors++
	s.mu.Unlock()
}

// Steal records one sweep configuration this node computed on behalf of
// a remote coordinator's work-stealing fan-out.
func (s *ServerRegistry) Steal() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.steals++
	s.mu.Unlock()
}

// Requeue records configurations put back on the work queue after the
// node computing them died mid-sweep.
func (s *ServerRegistry) Requeue(n int) {
	if s == nil || n <= 0 {
		return
	}
	s.mu.Lock()
	s.requeues += uint64(n)
	s.mu.Unlock()
}

// Compute records one executed computation and whether it failed.
func (s *ServerRegistry) Compute(failed bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.computes++
	if failed {
		s.failures++
	}
	s.mu.Unlock()
}

// Evicted records cache entries displaced by the capacity bound.
func (s *ServerRegistry) Evicted(n int) {
	if s == nil || n <= 0 {
		return
	}
	s.mu.Lock()
	s.evicted += uint64(n)
	s.mu.Unlock()
}

// Rejected records one backpressure rejection: a 429 when the bounded
// queue is full, a 503 when the server is draining for shutdown.
func (s *ServerRegistry) Rejected(status int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	switch status {
	case 429:
		s.rejected429++
	case 503:
		s.rejected503++
	}
	s.mu.Unlock()
}

// ServerSnapshot is an immutable copy of a server registry's state.
type ServerSnapshot struct {
	Requests   map[string]uint64
	OutcomesBy map[string][NumServeOutcomes]uint64

	Outcomes [NumServeOutcomes]uint64
	Computes uint64
	Failures uint64
	Evicted  uint64

	Rejected429 uint64
	Rejected503 uint64

	PeerFetches uint64
	PeerErrors  uint64
	Steals      uint64
	Requeues    uint64

	Latency [NumServeOutcomes]HistogramSnapshot
}

// Snapshot returns a copy of the registry's current state.
func (s *ServerRegistry) Snapshot() ServerSnapshot {
	if s == nil {
		return ServerSnapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := ServerSnapshot{
		Requests:    make(map[string]uint64, len(s.requests)),
		OutcomesBy:  make(map[string][NumServeOutcomes]uint64, len(s.outcomesBy)),
		Outcomes:    s.outcomes,
		Computes:    s.computes,
		Failures:    s.failures,
		Evicted:     s.evicted,
		Rejected429: s.rejected429,
		Rejected503: s.rejected503,
		PeerFetches: s.peerFetches,
		PeerErrors:  s.peerErrors,
		Steals:      s.steals,
		Requeues:    s.requeues,
	}
	for k, v := range s.requests {
		snap.Requests[k] = v
	}
	for k, v := range s.outcomesBy {
		snap.OutcomesBy[k] = *v
	}
	for i := range s.latency {
		snap.Latency[i] = s.latency[i].snapshot()
	}
	return snap
}

// sortedKeys returns m's keys in lexical order — endpoint order in the
// rendered table must not depend on map iteration.
func sortedKeys[V any](m map[string]V) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Table renders the snapshot as the /metricz text page.
func (s ServerSnapshot) Table() string {
	var sb strings.Builder
	sb.WriteString("estimation server metrics\n")
	eps := sortedKeys(s.Requests)
	sb.WriteString("  requests     ")
	if len(eps) == 0 {
		sb.WriteString("(none)")
	}
	for _, ep := range eps {
		fmt.Fprintf(&sb, " %s=%d", ep, s.Requests[ep])
	}
	sb.WriteString("\n")
	served := s.Outcomes[ServeHit] + s.Outcomes[ServeDedup] + s.Outcomes[ServeMiss]
	ratio := 0.0
	if served > 0 {
		ratio = 100 * float64(s.Outcomes[ServeHit]+s.Outcomes[ServeDedup]) / float64(served)
	}
	fmt.Fprintf(&sb, "  cache         hit=%d dedup=%d miss=%d evicted=%d (saved %.1f%%)\n",
		s.Outcomes[ServeHit], s.Outcomes[ServeDedup], s.Outcomes[ServeMiss], s.Evicted, ratio)
	for _, ep := range sortedKeys(s.OutcomesBy) {
		by := s.OutcomesBy[ep]
		fmt.Fprintf(&sb, "  cache[%s]%s hit=%d dedup=%d miss=%d\n",
			ep, strings.Repeat(" ", max(1, 6-len(ep))),
			by[ServeHit], by[ServeDedup], by[ServeMiss])
	}
	fmt.Fprintf(&sb, "  compute       runs=%d failures=%d\n", s.Computes, s.Failures)
	fmt.Fprintf(&sb, "  backpressure  429=%d 503=%d\n", s.Rejected429, s.Rejected503)
	if s.PeerFetches+s.PeerErrors+s.Steals+s.Requeues > 0 {
		fmt.Fprintf(&sb, "  cluster       peer-fetch=%d peer-err=%d steals=%d requeues=%d\n",
			s.PeerFetches, s.PeerErrors, s.Steals, s.Requeues)
	}
	for o := ServeMiss; o < NumServeOutcomes; o++ {
		h := s.Latency[o]
		fmt.Fprintf(&sb, "  latency-us    %-5s n=%-6d mean=%-10.1f max=%d\n",
			o.String(), h.Count, h.Mean(), h.Max)
	}
	return sb.String()
}
