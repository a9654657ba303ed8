package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for nordsim: re-executed with
// NORDSIM_MAIN set it runs main on its arguments, so the tests below see
// the real flag parsing, messages and exit status.
func TestMain(m *testing.M) {
	if os.Getenv("NORDSIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func nordsim(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "NORDSIM_MAIN=1")
	var outb, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outb, &errb
	err = cmd.Run()
	return outb.String(), errb.String(), err
}

// TestBenchmarkRefusesSyntheticFlags: a -benchmark run reads none of the
// synthetic-traffic flags, so setting one is refused by name instead of
// silently running the ordinary 4x4 workload; the flags it does read, at
// their defaults or not, still run.
func TestBenchmarkRefusesSyntheticFlags(t *testing.T) {
	workload := []string{"-benchmark", "blackscholes", "-scale", "0.01", "-warmup", "100"}
	values := map[string]string{"width": "8", "height": "8", "pattern": "bitcomp", "rate": "0.3", "measure": "500"}
	for _, name := range syntheticOnly {
		arg := "-" + name
		if v, ok := values[name]; ok {
			arg += "=" + v
		}
		_, stderr, err := nordsim(t, append(workload, arg)...)
		if err == nil || !strings.Contains(stderr, "-"+name) {
			t.Errorf("%s with -benchmark: err %v, stderr %q; want a refusal naming the flag", arg, err, stderr)
		}
	}
	for _, read := range [][]string{
		nil,
		{"-design", "conv_pg", "-seed", "3", "-wakeup", "8", "-topology", "mesh", "-csv"},
	} {
		if _, stderr, err := nordsim(t, append(workload, read...)...); err != nil {
			t.Errorf("-benchmark with %v: %v\n%s", read, err, stderr)
		}
	}
	// Without -benchmark every one of them is an ordinary synthetic flag.
	if _, stderr, err := nordsim(t, "-width", "8", "-height", "8", "-rate", "0.02", "-measure", "500", "-warmup", "100", "-forced-off"); err != nil {
		t.Errorf("synthetic run: %v\n%s", err, stderr)
	}
}

// TestZeroTableOneFlagsRefused: -wakeup, -width and -height default to
// the Table 1 values, so a 0 is an explicit request sim cannot spell (it
// reads a zero knob as the default). Each is refused by name instead of
// silently running the default.
func TestZeroTableOneFlagsRefused(t *testing.T) {
	for _, name := range []string{"wakeup", "width", "height"} {
		_, stderr, err := nordsim(t, "-design", "conv_pg", "-rate", "0.05", "-warmup", "100", "-measure", "500", "-"+name, "0")
		if err == nil || !strings.Contains(stderr, "-"+name+" 0") {
			t.Errorf("-%s 0: err %v, stderr %q; want a refusal naming the flag", name, err, stderr)
		}
	}
}

// TestPerRouterCSV: -per-router -csv writes the per-router CSV, a header
// plus one row per router, instead of the one-record result CSV.
func TestPerRouterCSV(t *testing.T) {
	stdout, stderr, err := nordsim(t, "-design", "conv_pg", "-rate", "0.05", "-warmup", "500", "-measure", "2000", "-per-router", "-csv")
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	recs, err := csv.NewReader(strings.NewReader(stdout)).ReadAll()
	if err != nil {
		t.Fatalf("per-router CSV does not parse: %v\n%s", err, stdout)
	}
	if len(recs) != 17 || recs[0][0] != "router" || !slices.Contains(recs[0], "wake_sa_request") {
		t.Fatalf("want a per-router header and 16 rows, got %d records:\n%s", len(recs), stdout)
	}
}

// TestTraceSummaryPerRouter: on NoRD, -trace x.ndjson writes one summary
// line per router before the end line, carrying the router's measured
// report, so their VC-threshold wakes sum to the run's wakeups.
func TestTraceSummaryPerRouter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ndjson")
	stdout, stderr, err := nordsim(t, "-design", "nord", "-rate", "0.05", "-warmup", "500", "-measure", "3000", "-trace", path, "-csv")
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	recs, err := csv.NewReader(strings.NewReader(stdout)).ReadAll()
	if err != nil || len(recs) != 2 {
		t.Fatalf("result CSV: %v\n%s", err, stdout)
	}
	wakeups, err := strconv.ParseUint(recs[1][slices.Index(recs[0], "wakeups")], 10, 64)
	if err != nil || wakeups == 0 {
		t.Fatalf("run wakeups %d (%v): the check would be vacuous", wakeups, err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	var summaries int
	var wakeVC uint64
	for _, ln := range lines {
		var l struct {
			Type   string `json:"type"`
			WakeVC uint64
		}
		if err := json.Unmarshal([]byte(ln), &l); err != nil {
			t.Fatalf("line %q: %v", ln, err)
		}
		if l.Type == "summary" {
			summaries++
			wakeVC += l.WakeVC
		}
	}
	if summaries != 16 || !strings.HasPrefix(lines[len(lines)-1], `{"type":"end"`) {
		t.Errorf("%d summary lines (want 16), last line %q (want the end line)", summaries, lines[len(lines)-1])
	}
	if wakeVC != wakeups {
		t.Errorf("summary lines carry %d VC-threshold wakes, the run has %d wakeups", wakeVC, wakeups)
	}
}
