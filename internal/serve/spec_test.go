package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"nord/internal/noc"
	"nord/internal/sim"
)

// TestExplicitZeroWarmup: `"warmup":0` is a different experiment from an
// omitted warmup — its own key, its own payload, and the payload a
// direct ZeroWarmup run produces. (fill used to map the sentinel to 0
// and a second fill mapped that 0 to the default, so the explicit-zero
// job ran the default warmup and cached it under the explicit-zero key.)
func TestExplicitZeroWarmup(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	run := func(body string) (string, []byte) {
		t.Helper()
		code, sr, _ := postJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: %d", body, code)
		}
		return sr.Key, waitState(t, ts, sr.ID, JobDone, 60*time.Second).Result
	}
	marshal := func(r sim.Result, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	zeroKey, zero := run(`{"kind":"synthetic","synthetic":{"design":"nord","width":4,"height":4,"rate":0.05,"warmup":0,"measure":2000,"seed":1}}`)
	defKey, def := run(`{"kind":"synthetic","synthetic":{"design":"nord","width":4,"height":4,"rate":0.05,"measure":2000,"seed":1}}`)
	if zeroKey == defKey || bytes.Equal(zero, def) {
		t.Fatalf("synthetic warmup:0 and omitted warmup coincide (keys %s / %s)", zeroKey, defKey)
	}
	direct := marshal(sim.RunSyntheticOpts(context.Background(), sim.SynthConfig{
		Design: noc.NoRD, Width: 4, Height: 4, Rate: 0.05, Warmup: sim.ZeroWarmup, Measure: 2000, Seed: 1,
	}, sim.RunOptions{}))
	if !bytes.Equal(zero, direct) {
		t.Errorf("synthetic warmup:0 payload differs from a direct ZeroWarmup run:\n%s\n%s", zero, direct)
	}

	zeroKey, zero = run(`{"kind":"workload","workload":{"design":"nord","benchmark":"x264","scale":0.02,"warmup":0,"seed":1}}`)
	defKey, def = run(`{"kind":"workload","workload":{"design":"nord","benchmark":"x264","scale":0.02,"seed":1}}`)
	if zeroKey == defKey || bytes.Equal(zero, def) {
		t.Fatalf("workload warmup:0 and omitted warmup coincide (keys %s / %s)", zeroKey, defKey)
	}
	direct = marshal(sim.RunWorkloadOpts(context.Background(), sim.WorkloadConfig{
		Design: noc.NoRD, Benchmark: "x264", Scale: 0.02, Warmup: sim.ZeroWarmup, Seed: 1,
	}, sim.RunOptions{}))
	if !bytes.Equal(zero, direct) {
		t.Errorf("workload warmup:0 payload differs from a direct ZeroWarmup run:\n%s\n%s", zero, direct)
	}
	var r sim.Result
	if err := json.Unmarshal(zero, &r); err != nil {
		t.Fatal(err)
	}
	if r.ExecTime != r.Cycles {
		t.Errorf("workload warmup:0 measured %d of %d cycles: a warmup ran", r.Cycles, r.ExecTime)
	}
}

// TestParallelismLeftTheWire: the shard count is no longer a job option.
// A new submission carrying it is refused loudly; a body journaled while
// it was still accepted restores (the journal decoder tolerates unknown
// fields) and keys like the same job without it.
func TestParallelismLeftTheWire(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	const with = `{"kind":"synthetic","synthetic":{"design":"nord","width":4,"height":4,"rate":0.05,"warmup":500,"measure":1000,"seed":7,"parallelism":4}}`
	const without = `{"kind":"synthetic","synthetic":{"design":"nord","width":4,"height":4,"rate":0.05,"warmup":500,"measure":1000,"seed":7}}`
	code, body := postRaw(t, ts, with)
	if code != http.StatusBadRequest || !strings.Contains(body, `unknown field \"parallelism\"`) {
		t.Fatalf(`"parallelism":4 got %d %s, want 400 naming the unknown field`, code, body)
	}
	j, err := s.RestoreJob("j000007", []byte(with))
	if err != nil {
		t.Fatalf("RestoreJob of a journaled body carrying parallelism: %v", err)
	}
	var req JobRequest
	if err := json.Unmarshal([]byte(without), &req); err != nil {
		t.Fatal(err)
	}
	tk, err := resolveTask(&req)
	if err != nil {
		t.Fatal(err)
	}
	if j.Key != tk.key {
		t.Errorf("restored key %s, want %s", j.Key, tk.key)
	}
	if bytes.Contains(j.RequestJSON(), []byte("parallelism")) {
		t.Errorf("restored job would ship the dead field to workers: %s", j.RequestJSON())
	}
}
