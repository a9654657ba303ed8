// Package search implements automated design-space exploration over the
// NoRD simulator: NSGA-II-style multi-objective search across the
// power-gating design knobs, scoring mean packet latency against
// energy-per-flit and router area.
//
// The search loop is deterministic: a seeded RNG drives every stochastic
// choice, candidate evaluations are pure functions of their configs, and
// all orderings are total (cache-key tie-breaks), so a spec with a fixed
// seed reproduces its Pareto front byte for byte. Candidate evaluation
// is delegated to an EvalFunc seam; the serve layer implements it by
// submitting each candidate as an ordinary content-addressed sim job,
// which dedups identical candidates fleet-wide and memoizes the frontier
// across generations and across users.
package search

import (
	"fmt"
	"sort"

	"nord/internal/noc"
	"nord/internal/sim"
	"nord/internal/topology"
)

// Genome axes, one per explored knob. A genome is a vector of indices
// into the Space's per-axis value lists.
const (
	axisDesign = iota
	axisTopology
	axisWidth
	axisVCs
	axisDepth
	axisGateIdle
	axisWake
	axisRate
	numAxes
)

// Genome is one candidate's position in the space: an index per axis.
type Genome [numAxes]int

// Space lists the values each axis may take. Empty axes take defaults
// from DefaultSpace; Filled sorts and dedups every axis so semantically
// identical spaces canonicalize (and hash) identically.
type Space struct {
	Designs    []string `json:"designs,omitempty"`
	Topologies []string `json:"topologies,omitempty"`
	Widths     []int    `json:"widths,omitempty"`
	// VCs are virtual channels per class; NoRD candidates are repaired up
	// to its 3-VC minimum (ring escape pair + one adaptive).
	VCs          []int `json:"vcs,omitempty"`
	BufferDepths []int `json:"buffer_depths,omitempty"`
	// GateIdle is the consecutive-idle-cycle count before a router gates
	// off; No_PG never gates, so its candidates do not show one.
	GateIdle []int `json:"gate_idle,omitempty"`
	// WakeThresholds are NoRD power-centric wakeup thresholds
	// (Params.ThresholdPower); other designs' candidates do not show one.
	WakeThresholds []int     `json:"wake_thresholds,omitempty"`
	Rates          []float64 `json:"rates,omitempty"`
}

// DefaultSpace is the grid explored when the spec leaves Space empty: all
// four designs on the paper's 4x4 mesh with a modest microarchitecture
// and load sweep — small enough for interactive searches, rich enough
// that the latency/energy/area trade-off is real.
func DefaultSpace() Space {
	return Space{
		Designs:        []string{"No_PG", "Conv_PG", "Conv_PG_OPT", "NoRD"},
		Topologies:     []string{"mesh"},
		Widths:         []int{4},
		VCs:            []int{2, 3, 4, 6},
		BufferDepths:   []int{2, 5, 8},
		GateIdle:       []int{1, 2, 6},
		WakeThresholds: []int{2, 6, 12},
		Rates:          []float64{0.05, 0.15, 0.30},
	}
}

func (s *Space) fill() {
	def := DefaultSpace()
	if len(s.Designs) == 0 {
		s.Designs = def.Designs
	}
	if len(s.Topologies) == 0 {
		s.Topologies = def.Topologies
	}
	if len(s.Widths) == 0 {
		s.Widths = def.Widths
	}
	if len(s.VCs) == 0 {
		s.VCs = def.VCs
	}
	if len(s.BufferDepths) == 0 {
		s.BufferDepths = def.BufferDepths
	}
	if len(s.GateIdle) == 0 {
		s.GateIdle = def.GateIdle
	}
	if len(s.WakeThresholds) == 0 {
		s.WakeThresholds = def.WakeThresholds
	}
	if len(s.Rates) == 0 {
		s.Rates = def.Rates
	}
	// Canonical axis order: designs keep their given order (it is a label
	// set, already validated unique); numeric axes sort and dedup.
	s.Widths = dedupInts(s.Widths)
	s.VCs = dedupInts(s.VCs)
	s.BufferDepths = dedupInts(s.BufferDepths)
	s.GateIdle = dedupInts(s.GateIdle)
	s.WakeThresholds = dedupInts(s.WakeThresholds)
	s.Rates = dedupFloats(s.Rates)
}

func dedupInts(v []int) []int {
	sort.Ints(v)
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != v[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func dedupFloats(v []float64) []float64 {
	sort.Float64s(v)
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != v[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// axisLen returns the number of values on an axis.
func (s *Space) axisLen(axis int) int {
	switch axis {
	case axisDesign:
		return len(s.Designs)
	case axisTopology:
		return len(s.Topologies)
	case axisWidth:
		return len(s.Widths)
	case axisVCs:
		return len(s.VCs)
	case axisDepth:
		return len(s.BufferDepths)
	case axisGateIdle:
		return len(s.GateIdle)
	case axisWake:
		return len(s.WakeThresholds)
	case axisRate:
		return len(s.Rates)
	}
	return 0
}

// validate applies the space's own rules to a filled space (fill leaves
// no axis empty and dedups the numeric ones): known, duplicate-free
// designs and topologies, and each integer axis positive (0 would be
// sim's "default", an alias no axis should hold), with VCs at least 2 —
// decode raises a count to its design's floor, so values below the
// lowest floor would alias it. Which values may run is sim's to say
// (Spec.runnable). Errors are client errors.
func (s *Space) validate() error {
	if len(s.Designs) == 0 {
		return fmt.Errorf("search: space has no designs")
	}
	seen := map[noc.Design]bool{}
	for _, name := range s.Designs {
		d, err := noc.DesignByName(name)
		if err != nil {
			return fmt.Errorf("search: %w", err)
		}
		if seen[d] {
			return fmt.Errorf("search: duplicate design %q", name)
		}
		seen[d] = true
	}
	seenTopo := map[topology.Kind]bool{}
	for _, t := range s.Topologies {
		k, err := topology.KindByName(t)
		if err != nil {
			return fmt.Errorf("search: %w", err)
		}
		if seenTopo[k] {
			return fmt.Errorf("search: duplicate topology %q", t)
		}
		seenTopo[k] = true
	}
	for _, axis := range []struct {
		name   string
		values []int
		floor  int
	}{
		{"grid width", s.Widths, 1},
		{"VCs per class", s.VCs, 2},
		{"buffer depth", s.BufferDepths, 1},
		{"gate_idle", s.GateIdle, 1},
		{"wake threshold", s.WakeThresholds, 1},
	} {
		for _, v := range axis.values {
			if v < axis.floor {
				return fmt.Errorf("search: %s %d below %d", axis.name, v, axis.floor)
			}
		}
	}
	for _, r := range s.Rates {
		if !(r > 0) {
			return fmt.Errorf("search: rate %g must be positive", r)
		}
	}
	return nil
}

// runnable asks sim whether the space's candidates may run, without
// decoding every genome: a candidate's network shape is its (design,
// topology, width), so each such triple is checked, and every value of
// the other axes once per design.
func (sp *Spec) runnable() error {
	s := &sp.Space
	var probes []Genome
	for d := range s.Designs {
		for t := range s.Topologies {
			for w := range s.Widths {
				probes = append(probes, Genome{axisDesign: d, axisTopology: t, axisWidth: w})
			}
		}
		for a := axisVCs; a < numAxes; a++ {
			for i := range s.axisLen(a) {
				g := Genome{axisDesign: d}
				g[a] = i
				probes = append(probes, g)
			}
		}
	}
	for _, g := range probes {
		c, err := sp.decode(g)
		if err == nil {
			err = c.Sim.Validate()
		}
		if err != nil {
			return fmt.Errorf("search: %s candidate: %w", s.Designs[g[axisDesign]], err)
		}
	}
	return nil
}

// Spec is the POST /v1/search body: search hyperparameters plus the
// space to explore. The zero value of every field selects a default.
type Spec struct {
	// Algorithm names the search method; "nsga2", the default, is the
	// only one.
	Algorithm string `json:"algorithm,omitempty"`
	// Seed drives every stochastic choice of the search loop; identical
	// (seed, spec) pairs reproduce the front byte for byte.
	Seed        int64 `json:"seed"`
	Generations int   `json:"generations,omitempty"`
	Population  int   `json:"population,omitempty"`
	// CrossoverRate / MutationRate tune the NSGA-II variation operators.
	CrossoverRate float64 `json:"crossover_rate,omitempty"`
	MutationRate  float64 `json:"mutation_rate,omitempty"`
	// Pattern / Warmup / Measure / SimSeed configure every candidate's
	// simulation (warmup 0 selects 1000 cycles; measure 0 selects 20000 —
	// search evaluations trade precision for breadth).
	Pattern string `json:"pattern,omitempty"`
	Warmup  int    `json:"warmup,omitempty"`
	Measure int    `json:"measure,omitempty"`
	SimSeed int64  `json:"sim_seed,omitempty"`
	Space   Space  `json:"space,omitempty"`
}

// Filled returns the spec with every default resolved — the canonical
// form the serve layer hashes for its job key.
func (sp Spec) Filled() Spec {
	if sp.Algorithm == "" {
		sp.Algorithm = "nsga2"
	}
	if sp.Generations == 0 {
		sp.Generations = 6
	}
	if sp.Population == 0 {
		sp.Population = 16
	}
	if sp.CrossoverRate == 0 {
		sp.CrossoverRate = 0.9
	}
	if sp.MutationRate == 0 {
		sp.MutationRate = 0.15
	}
	if sp.Pattern == "" {
		sp.Pattern = "uniform"
	}
	if sp.Warmup == 0 {
		sp.Warmup = 1000
	}
	if sp.Measure == 0 {
		sp.Measure = 20_000
	}
	sp.Space.fill()
	return sp
}

// Validate checks a filled spec: the search's own rules here and in
// Space.validate, then sim's on its candidates (runnable), so a spec it
// accepts has no candidate that fails to start. Errors are client
// errors.
func (sp *Spec) Validate() error {
	if sp.Algorithm != "nsga2" {
		return fmt.Errorf("search: unknown algorithm %q (nsga2)", sp.Algorithm)
	}
	if sp.Generations < 1 || sp.Generations > 64 {
		return fmt.Errorf("search: generations %d outside [1, 64]", sp.Generations)
	}
	if sp.Population < 2 || sp.Population > 256 {
		return fmt.Errorf("search: population %d outside [2, 256]", sp.Population)
	}
	if sp.CrossoverRate < 0 || sp.CrossoverRate > 1 {
		return fmt.Errorf("search: crossover_rate %g outside [0, 1]", sp.CrossoverRate)
	}
	if sp.MutationRate < 0 || sp.MutationRate > 1 {
		return fmt.Errorf("search: mutation_rate %g outside [0, 1]", sp.MutationRate)
	}
	// The spec's warmup has no sentinel (0 selects 1000 cycles), so
	// sim's ZeroWarmup is not a search spelling.
	if sp.Warmup < 0 {
		return fmt.Errorf("search: negative warmup %d", sp.Warmup)
	}
	if sp.Measure < 1000 {
		return fmt.Errorf("search: measure %d below the 1000-cycle floor", sp.Measure)
	}
	if err := sp.Space.validate(); err != nil {
		return err
	}
	return sp.runnable()
}

// PointConfig is a candidate's decoded, repaired configuration — the
// human-readable provenance attached to every front point. Knobs a
// design does not use are zeroed (and omitted from JSON) so a point does
// not display a gene that had no say in it.
type PointConfig struct {
	Design        string  `json:"design"`
	Topology      string  `json:"topology"`
	Width         int     `json:"width"`
	VCs           int     `json:"vcs"`
	BufferDepth   int     `json:"buffer_depth"`
	GateIdle      int     `json:"gate_idle,omitempty"`
	WakeThreshold int     `json:"wake_threshold,omitempty"`
	Rate          float64 `json:"rate"`
}

// Candidate is a decoded genome: the provenance config plus the filled
// simulation config. Identity is sim's: two candidates are one
// simulation exactly when their Sim fields are equal.
type Candidate struct {
	Config PointConfig
	Sim    sim.SynthConfig
}

// decode maps a genome onto a runnable candidate. The one repair that is
// the space's own is the VC count, raised to noc.MinVCs (3 for NoRD and
// for every design on the torus; the space's floor of 2 is the mesh
// minimum) — a direct submission with too few VCs is refused instead.
// Which genomes name the same simulation is not decided here:
// SynthConfig.Filled folds every knob a design does not read, for every
// caller. The GateIdle and WakeThreshold lines below only keep inert
// genes out of the displayed PointConfig.
func (sp *Spec) decode(g Genome) (Candidate, error) {
	s := &sp.Space
	design, err := noc.DesignByName(s.Designs[g[axisDesign]])
	if err != nil {
		return Candidate{}, err
	}
	kind, err := topology.KindByName(s.Topologies[g[axisTopology]])
	if err != nil {
		return Candidate{}, err
	}
	pc := PointConfig{
		Design:      design.String(),
		Topology:    kind.String(),
		Width:       s.Widths[g[axisWidth]],
		VCs:         s.VCs[g[axisVCs]],
		BufferDepth: s.BufferDepths[g[axisDepth]],
		Rate:        s.Rates[g[axisRate]],
	}
	pc.VCs = max(pc.VCs, noc.MinVCs(design, kind))
	blocks := design.Blocks()
	if blocks.PGSwitch {
		pc.GateIdle = s.GateIdle[g[axisGateIdle]]
	}
	if blocks.Bypass {
		pc.WakeThreshold = s.WakeThresholds[g[axisWake]]
	}
	cfg := sim.SynthConfig{
		Design:         design,
		Width:          pc.Width,
		Height:         pc.Width,
		Topology:       pc.Topology,
		Pattern:        sp.Pattern,
		Rate:           pc.Rate,
		Warmup:         sp.Warmup,
		Measure:        sp.Measure,
		Seed:           sp.SimSeed,
		VCsPerClass:    pc.VCs,
		BufferDepth:    pc.BufferDepth,
		GateIdleCycles: pc.GateIdle,
		ThresholdPower: pc.WakeThreshold,
	}.Filled()
	return Candidate{Config: pc, Sim: cfg}, nil
}

// randomGenome draws a uniform genome from the space.
func (sp *Spec) randomGenome(intn func(int) int) Genome {
	var g Genome
	for a := 0; a < numAxes; a++ {
		g[a] = intn(sp.Space.axisLen(a))
	}
	return g
}
