package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"nord/internal/search"
	"nord/internal/sim"
)

// payloadBudget bounds the serve-shape job payload. The router table went
// on the wire as columns at 997 (No_PG) to 1792 (NoRD) bytes; a field
// added to the per-router record spends from what is left.
const payloadBudget = 2048

// TestPayloadBudget: the serving job of every design (the ladder's shape:
// 4x4 mesh, 5 % load, 1000 + 5000 cycles) fits the payload budget.
func TestPayloadBudget(t *testing.T) {
	for _, design := range []string{"no_pg", "conv_pg", "conv_pg_opt", "nord"} {
		warmup := 1000
		payload, _, err := ExecuteRequest(context.Background(), &JobRequest{Kind: "synthetic", Synthetic: &SyntheticSpec{
			Design: design, Width: 4, Height: 4, Pattern: "uniform", Rate: 0.05,
			Warmup: &warmup, Measure: 5000, Seed: 1000003,
		}}, sim.RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", design, err)
		}
		t.Logf("%s: %d bytes", design, len(payload))
		if len(payload) > payloadBudget {
			t.Errorf("%s: payload is %d bytes, budget %d", design, len(payload), payloadBudget)
		}
	}
}

// TestRaggedCachedPayloadIsAnError: a cached payload whose router columns
// disagree in length — PUT to the cache tier, or found in the spill
// directory — fails the search evaluation that reads it, instead of
// panicking or scoring a short table.
func TestRaggedCachedPayloadIsAnError(t *testing.T) {
	cfg := sim.SynthConfig{Width: 4, Height: 4, Rate: 0.05, Measure: 1000, Seed: 5}.Filled()
	tk, err := resolveTask(&JobRequest{Kind: "synthetic", Synthetic: syntheticSpecFor(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	ragged := []byte(`{"Design":0,"Nodes":16,"Cycles":1000,"PacketsDelivered":9,"Routers":{"ID":[0,1,2],"X":[0,1]}}`)
	sum := sha256.Sum256(ragged)
	evaluate := func(s *Server) error {
		_, err := s.searchEval()(context.Background(), search.Candidate{Sim: cfg})
		return err
	}

	s, ts := newTestServer(t, Config{Workers: 1})
	if resp := tierPut(t, ts, tk.key, ragged, hex.EncodeToString(sum[:])); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("tier PUT: %d", resp.StatusCode)
	}
	if err := evaluate(s); err == nil || !strings.Contains(err.Error(), "column") {
		t.Errorf("evaluating a candidate whose tier payload is ragged: %v, want a column error", err)
	}

	dir := t.TempDir()
	if err := writeSpill(dir, filepath.Join(dir, tk.key+".json"), ragged); err != nil {
		t.Fatal(err)
	}
	s, _ = newTestServer(t, Config{Workers: 1, CacheDir: dir})
	if err := evaluate(s); err == nil || !strings.Contains(err.Error(), "column") {
		t.Errorf("evaluating a candidate whose spilled payload is ragged: %v, want a column error", err)
	}
	if got := s.Metrics().SimsExecuted.Load(); got != 0 {
		t.Errorf("%d simulations ran: the ragged payload was not the one read", got)
	}
}
