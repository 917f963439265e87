package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/javacard"
)

// Version is the serving layer's code-version tag. It is folded into
// every content hash, so bumping it invalidates all cached results —
// required whenever a change legitimately moves an energy figure (a
// model fix, a corpus change). Caching is only sound because the
// simulators are deterministic; the golden gate keeps them that way.
const Version = "ecserve/3"

// EstimateRequest asks for one corpus × layer × fault-plan energy
// estimation point: the body of POST /v1/estimate.
type EstimateRequest struct {
	// Layer selects the abstraction level: 0 (gate level), 1 (TL1) or
	// 2 (TL2).
	Layer int `json:"layer"`
	// Corpus names the transaction workload (bench.Corpora); default
	// "perf".
	Corpus string `json:"corpus,omitempty"`
	// N sizes the perf corpus; <= 0 selects bench.DefaultPerfN, capped
	// at 4096.
	N int `json:"n,omitempty"`
	// Fault is a named fault plan (fault.Names) or a key=value plan
	// spec (fault.Parse); empty means a clean run.
	Fault string `json:"fault,omitempty"`
	// DeadlineMs bounds the compute; 0 uses the server default.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// EstimateResponse is the result of one estimation point. EnergyBits
// is the IEEE-754 bit pattern of EnergyJ in hex — the field the
// byte-identity contract of the cache is stated (and tested) against.
type EstimateResponse struct {
	Key        string  `json:"key"`
	Layer      int     `json:"layer"`
	Corpus     string  `json:"corpus"`
	N          int     `json:"n"`
	Fault      string  `json:"fault"`
	Cycles     uint64  `json:"cycles"`
	EnergyJ    float64 `json:"energy_j"`
	EnergyBits string  `json:"energy_bits"`
	Errors     int     `json:"errors"`
	Retries    int     `json:"retries"`
}

// canonEstimate is a validated estimate request with defaults applied
// and the fault plan in canonical spec form.
type canonEstimate struct {
	Layer  int
	Corpus string
	N      int
	Plan   fault.Plan
	Spec   string // plan.Spec(), the canonical fault identity
}

// canonicalizeEstimate validates the request and resolves defaults, so
// two requests meaning the same computation canonicalize — and hash —
// identically.
func canonicalizeEstimate(req EstimateRequest) (canonEstimate, error) {
	c := canonEstimate{Layer: req.Layer, Corpus: req.Corpus, N: req.N}
	if c.Layer < 0 || c.Layer > 2 {
		return c, fmt.Errorf("serve: unsupported layer %d (valid layers: 0, 1, 2)", c.Layer)
	}
	if c.Corpus == "" {
		c.Corpus = "perf"
	}
	if c.Corpus != "perf" {
		c.N = 0 // only the perf corpus is parameterized
	} else if c.N <= 0 {
		c.N = bench.DefaultPerfN
	} else if c.N > maxEstimateN {
		return c, fmt.Errorf("serve: estimate n %d exceeds limit %d", c.N, maxEstimateN)
	}
	plan, err := fault.Parse(strings.TrimSpace(req.Fault))
	if err != nil {
		return c, fmt.Errorf("serve: %w", err)
	}
	c.Plan, c.Spec = plan, plan.Spec()
	// Reject unknown corpora now, not at compute time.
	if err := bench.CheckCorpus(c.Corpus); err != nil {
		return c, fmt.Errorf("serve: %w", err)
	}
	return c, nil
}

// maxEstimateN caps the perf-corpus size of one estimate, as maxBatchN
// caps a campaign run's.
const maxEstimateN = 4096

// estimateID is the canonical tuple an estimate's content key is a pure
// function of within one process.
type estimateID struct {
	layer  int
	corpus string
	n      int
	spec   string
}

const maxEstimateKeys = 1024 // about 150 B each

// estimateKeys memoizes content keys per estimateID, so the key of a
// repeated request — a cache hit, or a cluster hop that keys the same
// request twice — costs a map lookup instead of a corpus generation.
var estimateKeys = newMemo[estimateID, string](maxEstimateKeys)

// corpusGen is the corpus generator behind the estimate key — a seam
// the memoization test swaps to count generator invocations.
var corpusGen = bench.CorpusItems

// key content-addresses the estimation point: layer × corpus identity ×
// fault plan × code version, where the corpus identity is a digest of
// the actual transaction bytes (not just the name), so a corpus
// generator change changes the address. It is memoized per canonical
// tuple, so only the first request for a point generates its corpus.
func (c canonEstimate) key() string {
	return estimateKeys.get(estimateID{c.Layer, c.Corpus, c.N, c.Spec}, func() string {
		h := sha256.New()
		fmt.Fprintf(h, "%s\x00estimate\x00layer=%d\x00corpus=%s\x00n=%d\x00fault=%s\x00",
			Version, c.Layer, c.Corpus, c.N, c.Spec)
		items, err := corpusGen(c.Corpus, c.N)
		if err == nil {
			h.Write(itemBytes(items))
		}
		return hex.EncodeToString(h.Sum(nil))
	})
}

// itemBytes serializes a transaction corpus deterministically — the
// "workload bytes" component of an estimate's content address.
func itemBytes(items []core.Item) []byte {
	buf := make([]byte, 0, 32*len(items))
	var w [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		buf = append(buf, w[:]...)
	}
	u64(uint64(len(items)))
	for _, it := range items {
		u64(it.NotBefore)
		u64(it.Tr.Addr)
		u64(uint64(it.Tr.Kind))
		u64(uint64(it.Tr.Width))
		if it.Tr.Burst {
			u64(1)
		} else {
			u64(0)
		}
		u64(uint64(len(it.Tr.Data)))
		for _, d := range it.Tr.Data {
			u64(uint64(d))
		}
	}
	return buf
}

// SweepRequest asks for a design-space sweep: the body of
// POST /v1/sweep. Zero-valued axes take the full default vocabulary,
// so the empty request is the complete §4.3 exploration.
type SweepRequest struct {
	Layers    []int    `json:"layers,omitempty"`    // default [1, 2]
	Orgs      []string `json:"orgs,omitempty"`      // default all SFR organizations
	AddrMaps  []string `json:"addr_maps,omitempty"` // default ["near", "far"]
	Workloads []string `json:"workloads,omitempty"` // default all named workloads
	Faults    []string `json:"faults,omitempty"`    // named plans; empty = clean only
	Arbs      []string `json:"arbs,omitempty"`      // arbitration policies; empty = single master
	Tears     []string `json:"tears,omitempty"`     // card-tear plans (tear.Names); empty = never torn
	Journals  []string `json:"journals,omitempty"`  // journal strategies (journal.Names); empty = unjournaled
	// Fidelity selects how the sweep spends its time (explore.Fidelities):
	// "exhaustive" (default) evaluates every configuration at its
	// requested layer; "screen" returns analytic predictions only;
	// "confirm" screens, prunes by calibrated ε-domination and confirms
	// the survivors exactly.
	Fidelity   string `json:"fidelity,omitempty"`
	DeadlineMs int64  `json:"deadline_ms,omitempty"`
	// Async queues the sweep as a job and returns 202 with its id
	// instead of holding the connection open; poll GET /v1/jobs/{id}.
	Async bool `json:"async,omitempty"`
}

// SweepRow is one configuration's outcome in the sweep's NDJSON
// stream. Under the "screen" fidelity the row carries the analytic
// prediction instead of an exact measurement: Predicted is set, Kept
// reports the pruning decision, and the exact-only counters (Tx,
// Retries, Steps) stay zero.
type SweepRow struct {
	Workload   string  `json:"workload"`
	Layer      int     `json:"layer"`
	Org        string  `json:"org"`
	AddrMap    string  `json:"addr_map"`
	Fault      string  `json:"fault,omitempty"`
	Arb        string  `json:"arb,omitempty"`
	Tear       string  `json:"tear,omitempty"`    // card-tear plan of this cell
	Journal    string  `json:"journal,omitempty"` // journal strategy of this cell
	Cycles     uint64  `json:"cycles"`
	EnergyJ    float64 `json:"energy_j"`
	EnergyBits string  `json:"energy_bits"`
	Tx         uint64  `json:"tx"`
	Retries    uint64  `json:"retries"`
	Steps      uint64  `json:"steps"`
	Predicted  bool    `json:"predicted,omitempty"`
	Kept       bool    `json:"kept,omitempty"`

	// Card-tear outcome (tear/journal cells only; absent otherwise, so
	// clean sweep bodies stay byte-identical to prior versions).
	Torn         bool    `json:"torn,omitempty"`
	CutCycle     uint64  `json:"cut_cycle,omitempty"`
	RecoveryJ    float64 `json:"recovery_j,omitempty"`
	RecoveryBits string  `json:"recovery_bits,omitempty"`
}

// SweepTrailer is the final NDJSON line of a sweep response. The
// screening metadata fields are present only for the non-exhaustive
// fidelities, so exhaustive sweep bodies are byte-identical to the
// historical rendering.
type SweepTrailer struct {
	Done   bool     `json:"done"`
	Key    string   `json:"key"`
	Rows   int      `json:"rows"`
	Errors []string `json:"errors,omitempty"`

	// Multi-fidelity accounting (fidelity "screen" / "confirm").
	Fidelity  string             `json:"fidelity,omitempty"`
	Screened  int                `json:"screened,omitempty"`
	Pruned    int                `json:"pruned,omitempty"`
	Confirmed int                `json:"confirmed,omitempty"`
	EpsEnergy map[string]float64 `json:"eps_energy,omitempty"` // per layer, ε derived from the calibrated band
	EpsCycles map[string]float64 `json:"eps_cycles,omitempty"`
}

// canonSweep is a validated sweep request with defaults applied and
// every axis element resolved against its vocabulary.
type canonSweep struct {
	Layers    []int
	Orgs      []javacard.Organization
	OrgNames  []string
	Maps      []string
	Workloads []javacard.Workload
	Faults    []string
	Arbs      []string
	Tears     []string
	Journals  []string
	Fidelity  explore.Fidelity
}

// OrgByName resolves an SFR-organization name (the Organization.String
// vocabulary) back to its value.
func OrgByName(name string) (javacard.Organization, bool) {
	for _, o := range javacard.Organizations {
		if o.String() == name {
			return o, true
		}
	}
	return 0, false
}

func canonicalizeSweep(req SweepRequest) (canonSweep, error) {
	var c canonSweep
	c.Layers = req.Layers
	if len(c.Layers) == 0 {
		c.Layers = []int{1, 2}
	}
	for _, l := range c.Layers {
		if !explore.ValidLayer(l) {
			return c, fmt.Errorf("serve: unsupported sweep layer %d (valid layers: %s)", l, explore.LayerVocab())
		}
	}
	fid, err := explore.ParseFidelity(req.Fidelity)
	if err != nil {
		return c, fmt.Errorf("serve: %w", err)
	}
	c.Fidelity = fid
	if len(req.Orgs) == 0 {
		c.Orgs = append(c.Orgs, javacard.Organizations...)
	} else {
		for _, name := range req.Orgs {
			o, ok := OrgByName(name)
			if !ok {
				var valid []string
				for _, v := range javacard.Organizations {
					valid = append(valid, v.String())
				}
				return c, fmt.Errorf("serve: unknown organization %q (valid: %s)",
					name, strings.Join(valid, ", "))
			}
			c.Orgs = append(c.Orgs, o)
		}
	}
	for _, o := range c.Orgs {
		c.OrgNames = append(c.OrgNames, o.String())
	}
	c.Maps = req.AddrMaps
	if len(c.Maps) == 0 {
		c.Maps = append(c.Maps, explore.AddrMaps...)
	}
	for _, m := range c.Maps {
		if _, ok := explore.BaseForMap(m); !ok {
			return c, fmt.Errorf("serve: unknown address map %q (valid: %s)",
				m, strings.Join(explore.AllAddrMaps, ", "))
		}
	}
	all := javacard.Workloads()
	if len(req.Workloads) == 0 {
		c.Workloads = all
	} else {
		for _, name := range req.Workloads {
			found := false
			for _, w := range all {
				if w.Name == name {
					c.Workloads = append(c.Workloads, w)
					found = true
					break
				}
			}
			if !found {
				var valid []string
				for _, w := range all {
					valid = append(valid, w.Name)
				}
				return c, fmt.Errorf("serve: unknown workload %q (valid: %s)",
					name, strings.Join(valid, ", "))
			}
		}
	}
	if len(req.Faults) > 0 {
		names, err := fault.ParseNames(strings.Join(req.Faults, ","))
		if err != nil {
			return c, fmt.Errorf("serve: %w", err)
		}
		c.Faults = names
	}
	if len(req.Arbs) > 0 {
		arbs, err := explore.ParseArbs(strings.Join(req.Arbs, ","))
		if err != nil {
			return c, fmt.Errorf("serve: %w", err)
		}
		c.Arbs = arbs
	}
	if len(req.Tears) > 0 {
		tears, err := explore.ParseTears(strings.Join(req.Tears, ","))
		if err != nil {
			return c, fmt.Errorf("serve: %w", err)
		}
		c.Tears = tears
	}
	if len(req.Journals) > 0 {
		journals, err := explore.ParseJournals(strings.Join(req.Journals, ","))
		if err != nil {
			return c, fmt.Errorf("serve: %w", err)
		}
		c.Journals = journals
	}
	if err := validateTearCombos(c); err != nil {
		return c, err
	}
	return c, nil
}

// validateTearCombos rejects tear/journal axes that some requested
// cell could not evaluate: card-tear injection needs a timed
// single-master bus, so an active tear plan or journal strategy is
// incompatible with layer 3 and with arbitration policies. Lists
// containing only "none" (canonicalized to "") stay unrestricted.
func validateTearCombos(c canonSweep) error {
	active := false
	for _, t := range c.Tears {
		if t != "" {
			active = true
		}
	}
	for _, j := range c.Journals {
		if j != "" {
			active = true
		}
	}
	if !active {
		return nil
	}
	for _, l := range c.Layers {
		if l != 1 && l != 2 {
			return fmt.Errorf("serve: tear/journal axes need timed layers (1, 2); layer %d requested", l)
		}
	}
	for _, a := range c.Arbs {
		if a != "" {
			return fmt.Errorf("serve: tear/journal axes are single-master only; arbitration %q requested", a)
		}
	}
	return nil
}

// key content-addresses the sweep: every axis in request order plus a
// digest of each workload's assembled program bytes and the code
// version. Axis order matters — it determines the NDJSON row order —
// so it is part of the address.
func (c canonSweep) key() string {
	h := sha256.New()
	// The calibration version is part of the address: layer-3 rows and
	// the screen/confirm fidelities are functions of the fitted model,
	// so a new fit procedure must miss the old cache entries.
	fmt.Fprintf(h, "%s\x00sweep\x00%s\x00fidelity=%s\x00layers=%v\x00orgs=%v\x00maps=%v\x00faults=%v\x00arbs=%v\x00tears=%v\x00journals=%v\x00",
		Version, calib.Version, c.Fidelity, c.Layers, c.OrgNames, c.Maps, c.Faults, c.Arbs, c.Tears, c.Journals)
	for _, w := range c.Workloads {
		hashWorkload(h, w)
	}
	return hex.EncodeToString(h.Sum(nil))
}
