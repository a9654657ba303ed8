package paper

import (
	"context"
	"fmt"
	"math"
	"sync"

	"nord/internal/noc"
	"nord/internal/sim"
)

// SuiteResult holds one sim.Result per (benchmark, design); the rows of
// Figures 3 and 8–12 derive their tables from it.
type SuiteResult struct {
	Benchmarks []string
	Results    map[string]map[noc.Design]sim.Result
}

// RunSuite executes the full PARSEC-like suite across all four designs,
// one pool cell per (benchmark, design). progress, when non-nil, is told
// each cell as a worker picks it up — one call at a time, so it need not
// be safe for concurrent use, but from the workers' goroutines and not in
// index order. A cell that fails at runtime (deadlock, protocol
// violation) keeps its partial Result with Err set and the rest of the
// suite runs on; a configuration error or a canceled ctx fails the suite.
func RunSuite(ctx context.Context, scale float64, seed int64, progress func(string)) (*SuiteResult, error) {
	sr := &SuiteResult{Benchmarks: sim.Benchmarks(), Results: map[string]map[noc.Design]sim.Result{}}
	designs := noc.Designs()
	at := func(i int) (string, noc.Design) { return sr.Benchmarks[i/len(designs)], designs[i%len(designs)] }
	var progressMu sync.Mutex
	results, errs := sim.RunCells(ctx, len(sr.Benchmarks)*len(designs), func(ctx context.Context, i int) (sim.Result, error) {
		b, d := at(i)
		if progress != nil {
			progressMu.Lock()
			progress(fmt.Sprintf("%s / %s", b, d))
			progressMu.Unlock()
		}
		return sim.RunWorkloadOpts(ctx, sim.WorkloadConfig{Design: d, Benchmark: b, Scale: scale, Seed: seed}, sim.RunOptions{})
	})
	for i, r := range results {
		b, d := at(i)
		if err := errs[i]; err != nil {
			err = fmt.Errorf("sim: %s on %v: %w", b, d, err)
			if !sim.IsRuntimeFailure(err) {
				return nil, err
			}
			r.Design, r.Label, r.Err = d, b, err.Error()
		}
		if sr.Results[b] == nil {
			sr.Results[b] = map[noc.Design]sim.Result{}
		}
		sr.Results[b][d] = r
	}
	return sr, nil
}

// normalised divides a metric by the reference design's value per
// benchmark and returns per-benchmark maps plus per-design averages.
// A non-positive reference (e.g. a degenerate run that delivered zero
// flits) marks the whole benchmark row NaN instead of silently
// reporting 0 — a 0 reads as "this design eliminated the metric", which
// is a very different claim from "the baseline measured nothing". NaN
// rows are excluded from the per-design averages; a design with no
// valid rows averages to NaN.
func (sr *SuiteResult) normalised(metric func(sim.Result) float64, ref noc.Design) (map[string]map[noc.Design]float64, map[noc.Design]float64) {
	rows := map[string]map[noc.Design]float64{}
	sum, cnt := map[noc.Design]float64{}, map[noc.Design]float64{}
	for _, b := range sr.Benchmarks {
		base := metric(sr.Results[b][ref])
		rows[b] = map[noc.Design]float64{}
		for d, r := range sr.Results[b] {
			rows[b][d] = math.NaN()
			cnt[d] += 0 // a design with no valid row averages to 0/0, NaN
			if base > 0 {
				rows[b][d] = metric(r) / base
				sum[d] += rows[b][d]
				cnt[d]++
			}
		}
	}
	avg := map[noc.Design]float64{}
	for d, n := range cnt {
		avg[d] = sum[d] / n
	}
	return rows, avg
}
