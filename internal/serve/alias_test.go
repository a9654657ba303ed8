package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

// wireKey resolves a synthetic job body as handleSubmit would and returns
// its cache key.
func wireKey(t *testing.T, design, members string) (string, error) {
	t.Helper()
	return bodyKey(t, fmt.Sprintf(`{"kind":"synthetic","synthetic":{"design":%q,"rate":0.05,"measure":2000%s}}`, design, members))
}

// bodyKey is wireKey for a whole job body.
func bodyKey(t *testing.T, body string) (string, error) {
	t.Helper()
	req, err := decodeRequest([]byte(body))
	if err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	tk, err := resolveTask(req)
	if err != nil {
		return "", err
	}
	return tk.key, nil
}

// TestAliasesShareKey is the wire half of sim's TestAliasesRunIdentically:
// every pair of spellings proved there to run identically resolves to one
// cache key here — one job, one simulation, one cache entry — and a knob
// the design does read still names a different job. serve owns none of
// these rules; it hashes sim.SynthConfig.Filled().
func TestAliasesShareKey(t *testing.T) {
	const inert = `,"gate_idle":6,"wakeup_latency":9,"threshold_perf":3,"threshold_power":3,"no_perf_centric":true`
	for _, c := range []struct {
		design, base, alias string
		same                bool
	}{
		// A default written out.
		{"conv_pg", ``, `,"wakeup_latency":12`, true},
		{"nord", ``, `,"wakeup_latency":12`, true},
		{"nord", ``, `,"threshold_perf":1`, true},
		{"nord", ``, `,"threshold_power":6`, true},
		{"nord", ``, `,"width":4,"height":4,"topology":"mesh","pattern":"uniform","warmup":10000,"vcs":4,"buffer_depth":5,"gate_idle":2`, true},
		// No_PG has no controller, no ring and no planner.
		{"no_pg", ``, `,"gate_idle":6`, true},
		{"no_pg", ``, `,"wakeup_latency":9`, true},
		{"no_pg", ``, `,"threshold_perf":3`, true},
		{"no_pg", ``, `,"threshold_power":3`, true},
		{"no_pg", ``, `,"no_perf_centric":true`, true},
		{"no_pg", ``, `,"forced_off":true`, true},
		// The conventional designs have a controller, but only NoRD has
		// thresholds and a planner.
		{"conv_pg", ``, `,"threshold_perf":3`, true},
		{"conv_pg", ``, `,"threshold_power":3`, true},
		{"conv_pg", ``, `,"no_perf_centric":true`, true},
		{"conv_pg_opt", ``, `,"threshold_perf":3,"threshold_power":3,"no_perf_centric":true`, true},
		// A forced-off NoRD router never wakes: nothing tunes it.
		{"nord", `,"forced_off":true`, `,"forced_off":true` + inert, true},
		// Topology names.
		{"nord", `,"topology":"cmesh"`, `,"topology":"concentrated"`, true},
		{"nord", `,"topology":"cmesh"`, `,"topology":"concentrated_mesh"`, true},

		// Controls: live knobs keep jobs apart.
		{"conv_pg", ``, `,"gate_idle":6`, false},
		{"conv_pg", ``, `,"wakeup_latency":9`, false},
		{"conv_pg", ``, `,"forced_off":true`, false},
		{"conv_pg", `,"forced_off":true`, `,"forced_off":true,"gate_idle":6`, false},
		{"nord", ``, `,"gate_idle":6`, false},
		{"nord", ``, `,"threshold_perf":3`, false},
		{"nord", ``, `,"threshold_power":3`, false},
		{"nord", ``, `,"no_perf_centric":true`, false},
		{"nord", ``, `,"forced_off":true`, false},
		{"nord", ``, `,"topology":"cmesh"`, false},
	} {
		base, err := wireKey(t, c.design, c.base)
		if err != nil {
			t.Fatal(err)
		}
		alias, err := wireKey(t, c.design, c.alias)
		if err != nil {
			t.Fatal(err)
		}
		if (alias == base) != c.same {
			t.Errorf("%s {%s} vs {%s}: same key = %t, want %t", c.design, c.base, c.alias, alias == base, c.same)
		}
	}
	// A trace replay draws no random number: its seed names nothing (the
	// other half is sim's TestTraceRecordReplayRoundTrip).
	seed1, err1 := bodyKey(t, `{"kind":"trace","trace":{"design":"nord","path":"a.trace","seed":1}}`)
	seed2, err2 := bodyKey(t, `{"kind":"trace","trace":{"design":"nord","path":"a.trace","seed":2}}`)
	if err1 != nil || err2 != nil || seed1 != seed2 {
		t.Errorf("trace replays under seeds 1 and 2 key apart: %s (%v) vs %s (%v)", seed1, err1, seed2, err2)
	}
	// Not an alias: only a search repairs a VC count up to noc.MinVCs (its
	// space semantics); a direct submission below the minimum is refused.
	if _, err := wireKey(t, "nord", `,"vcs":2`); err == nil {
		t.Error(`NoRD with "vcs":2 resolved; want the 400`)
	}
}

// TestSearchChildSharesDirectKey: a point a search evaluated and the same
// point POSTed directly — defaults written out, knobs the design never
// reads set to anything — are one job. The direct submission is answered
// from the search child's result without a second simulation, under the
// key the front reports.
func TestSearchChildSharesDirectKey(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16})
	code, sr := postSearch(t, ts, `{"seed":4,"generations":1,"population":8,"measure":1000,"sim_seed":9,
		"space":{"designs":["No_PG","NoRD"],"vcs":[3,4],"buffer_depths":[2,5],"gate_idle":[2,6],"wake_thresholds":[6,12],"rates":[0.05]}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	_, res := searchOutcome(t, ts, sr.ID)
	sims := s.Metrics().SimsExecuted.Load()
	seen := map[string]bool{}
	for _, p := range res.Front {
		pc := p.Config
		seen[pc.Design] = true
		warmup := 1000 // search.Spec's default
		direct := SyntheticSpec{
			Design: pc.Design, Width: pc.Width, Height: pc.Width, Topology: pc.Topology,
			Pattern: "uniform", Rate: pc.Rate, Warmup: &warmup, Measure: 1000, Seed: 9,
			VCs: pc.VCs, BufferDepth: pc.BufferDepth,
			GateIdle: pc.GateIdle, ThresholdPower: pc.WakeThreshold, WakeupLatency: 12,
		}
		if pc.Design == "No_PG" {
			direct.GateIdle, direct.WakeupLatency, direct.ThresholdPerf, direct.ThresholdPower = 7, 9, 5, 9
		}
		body, err := json.Marshal(JobRequest{Kind: "synthetic", Synthetic: &direct})
		if err != nil {
			t.Fatal(err)
		}
		code, dr, _ := postJob(t, ts, string(body))
		if code != http.StatusOK || !dr.Cached || dr.Key != p.CacheKey {
			t.Errorf("%+v posted directly: HTTP %d cached=%t key %s, want a hit on the child's %s", pc, code, dr.Cached, dr.Key, p.CacheKey)
		}
	}
	if !seen["No_PG"] || !seen["NoRD"] {
		t.Fatalf("front covers %v; the test needs a No_PG and a NoRD point", seen)
	}
	if got := s.Metrics().SimsExecuted.Load(); got != sims {
		t.Errorf("direct submissions ran %d more simulations, want 0", got-sims)
	}
}
