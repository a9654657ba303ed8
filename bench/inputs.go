package main

import (
	"encoding/json"
	"math/rand"

	"nord/internal/search"
	"nord/internal/serve"
)

// Everything the program under test sees is generated here from -seed:
// the same seed gives the same request bodies in the same order.

var jobDesigns = []string{"no_pg", "conv_pg", "conv_pg_opt", "nord"}

// jobSeed derives the traffic seed of job i. Indices may be negative
// (warm-up jobs); within one -seed every index gets its own seed, so
// every job is a cache miss.
func jobSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// jobRequest is job i of the serving workloads: the paper's 4x4 mesh at
// 5% load, designs round-robin, 1000 warm-up + 5000 measured cycles.
func jobRequest(cfg *config, i int) *serve.JobRequest {
	warmup := cfg.scale(1000, 20)
	d := i % len(jobDesigns)
	if d < 0 {
		d += len(jobDesigns)
	}
	return &serve.JobRequest{Kind: "synthetic", Synthetic: &serve.SyntheticSpec{
		Design: jobDesigns[d], Width: 4, Height: 4, Pattern: "uniform", Rate: 0.05,
		Warmup: &warmup, Measure: cfg.scale(5000, 100), Seed: jobSeed(cfg.seed, i),
	}}
}

// jobBody is jobRequest as the POST body.
func jobBody(cfg *config, i int) []byte {
	b, err := json.Marshal(jobRequest(cfg, i))
	if err != nil {
		panic(err) // plain data cannot fail to marshal
	}
	return b
}

// zipfIndices draws n indices below keys from Zipf(s=1.1): a few specs
// are resubmitted constantly, the tail rarely.
func zipfIndices(seed int64, n, keys int) []int {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.1, 1, uint64(keys-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// searchesPerRound is how many seeded searches one round of search_nsga2
// runs, each on its own cold service.
const searchesPerRound = 2

// searchSpec is search i of a search_nsga2 round: NSGA-II over all four
// designs, mesh and torus, 4x4 and 8x8. The search loop's own seed is the
// search's index: which candidates a search visits decides what its
// evaluations cost, so letting -seed pick the trajectory would make
// evals/s a property of the seed. -seed sets the traffic seed of every
// candidate simulation.
func searchSpec(cfg *config, i int) search.Spec {
	return search.Spec{
		Algorithm:   "nsga2",
		Seed:        int64(i + 1),
		SimSeed:     cfg.seed,
		Population:  16,
		Generations: cfg.scale(4, 2),
		Warmup:      500,
		Measure:     cfg.scale(1500, 1000),
		Space:       search.Space{Widths: []int{4, 8}, Topologies: []string{"mesh", "torus"}},
	}
}
