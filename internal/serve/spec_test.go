package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"nord/internal/noc"
	"nord/internal/sim"
	"nord/internal/trace"
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

// saveTrace writes a 4x4 trace of n packets to path; the stride picks
// destinations, so two calls with different arguments replay differently.
func saveTrace(t *testing.T, path string, n, stride int) {
	t.Helper()
	tr := &trace.Trace{Nodes: 16}
	for i := 0; i < n; i++ {
		src := i % 16
		tr.Events = append(tr.Events, trace.Event{Cycle: uint64(4 * i), Src: src, Dst: (src + stride) % 16, Flits: 5})
	}
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
}

// TestTraceJobKeyedByFileContent rewrites a replayed trace file in place:
// the resubmission must run the new file, not serve the old file's
// cached result under the same path.
func TestTraceJobKeyedByFileContent(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	path := filepath.Join(t.TempDir(), "replay.trace")
	body := `{"kind":"trace","trace":{"design":"nord","path":` + strconv.Quote(path) + `}}`
	fresh := func() []byte {
		t.Helper()
		var req JobRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		payload, _, err := ExecuteRequest(context.Background(), &req, sim.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}

	saveTrace(t, path, 200, 5)
	code, first, _ := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	old := waitState(t, ts, first.ID, JobDone, 30*time.Second).Result

	saveTrace(t, path, 600, 3)
	code, second, _ := postJob(t, ts, body)
	if code != http.StatusAccepted || second.Cached || second.Key == first.Key {
		t.Fatalf("resubmit after rewrite: %d cached=%v key %s (first %s), want 202, a miss, a new key", code, second.Cached, second.Key, first.Key)
	}
	got := waitState(t, ts, second.ID, JobDone, 30*time.Second).Result
	if !bytes.Equal(got, fresh()) {
		t.Error("replay of the rewritten file differs from a fresh run of it")
	}
	if bytes.Equal(got, old) {
		t.Error("the two trace files replayed identically; the test proves nothing")
	}
}

// TestTraceRewrittenBeforeRunFails rewrites the file between resolve and
// run: the run must fail rather than cache the new file's result under
// the old file's key.
func TestTraceRewrittenBeforeRunFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "replay.trace")
	saveTrace(t, path, 50, 5)
	tk, err := resolveTask(&JobRequest{Kind: "trace", Trace: &TraceSpec{Design: "nord", Path: path}})
	if err != nil {
		t.Fatal(err)
	}
	saveTrace(t, path, 50, 3)
	if _, _, err := tk.run(context.Background(), sim.RunOptions{}); err == nil || !strings.Contains(err.Error(), "changed since") {
		t.Fatalf("run after rewrite: %v, want a changed-file error", err)
	}
}
