package search

import (
	"encoding/json"

	"nord/internal/power"
	"nord/internal/sim"
)

// Objectives is a candidate's objective vector; all three are minimized.
type Objectives struct {
	// LatencyCycles is the mean packet latency over the measured window.
	LatencyCycles float64 `json:"latency_cycles"`
	// EnergyPerFlitPJ is total network energy divided by delivered flits.
	EnergyPerFlitPJ float64 `json:"energy_per_flit_pj"`
	// AreaMM2 is the total router area of the mesh, scaled to the
	// candidate's VC count and buffer depth.
	AreaMM2 float64 `json:"area_mm2"`
}

func (o Objectives) vector() [3]float64 {
	return [3]float64{o.LatencyCycles, o.EnergyPerFlitPJ, o.AreaMM2}
}

// Extract computes the objective vector from a finished run. ok is false
// for infeasible candidates — saturated or deadlocked configurations
// that delivered nothing measurable; they are constraint-dominated by
// every feasible point rather than failing the search.
func Extract(cfg sim.SynthConfig, res sim.Result) (Objectives, bool) {
	if res.Err != "" || res.PacketsDelivered == 0 || res.AvgPacketLatency <= 0 {
		return Objectives{}, false
	}
	flits := res.Throughput * float64(res.Nodes) * float64(res.Cycles)
	if flits <= 0 {
		return Objectives{}, false
	}
	model, err := power.New(cfg.Tech)
	if err != nil {
		return Objectives{}, false
	}
	routerArea := model.RouterAreaFor(cfg.Design.Blocks(), cfg.VCsPerClass, cfg.BufferDepth).Total()
	return Objectives{
		LatencyCycles:   res.AvgPacketLatency,
		EnergyPerFlitPJ: res.Energy.Total() / flits * 1e12,
		AreaMM2:         routerArea * float64(res.Nodes),
	}, true
}

// Evaluation is one candidate's scored outcome, as produced by an
// EvalFunc. CacheKey is the candidate's content address (the dedup
// identity across generations); Request is the exact job body that
// evaluated it (provenance: re-POST it to /v1/jobs to reproduce the
// point); Cached reports whether this evaluation was served without a
// fresh simulation.
type Evaluation struct {
	CacheKey   string          `json:"cache_key"`
	Request    json.RawMessage `json:"request,omitempty"`
	Cached     bool            `json:"-"`
	Infeasible bool            `json:"-"`
	Objectives Objectives      `json:"objectives"`
}

// Point is one member of the Pareto front, with full provenance.
type Point struct {
	Config     PointConfig     `json:"config"`
	CacheKey   string          `json:"cache_key"`
	Request    json.RawMessage `json:"request,omitempty"`
	Objectives Objectives      `json:"objectives"`
	// Generation is the generation the point was first evaluated in.
	Generation int `json:"generation"`
}

// Stats summarizes a finished search. Unlike Front, Stats is NOT part of
// the determinism contract: CacheHits depends on what earlier searches
// left in the server's cache.
type Stats struct {
	Generations int `json:"generations"`
	Evaluations int `json:"evaluations"`
	CacheHits   int `json:"cache_hits"`
	Infeasible  int `json:"infeasible"`
}

// Result is a finished search: the Pareto front (byte-for-byte
// reproducible for a fixed seed and spec) plus run statistics.
type Result struct {
	Algorithm string  `json:"algorithm"`
	Seed      int64   `json:"seed"`
	Front     []Point `json:"front"`
	Stats     Stats   `json:"stats"`
}
