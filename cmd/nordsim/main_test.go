package main

import (
	"bytes"
	"os"
	"os/exec"
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

func nordsim(t *testing.T, args ...string) (stderr string, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "NORDSIM_MAIN=1")
	var errb bytes.Buffer
	cmd.Stderr = &errb
	err = cmd.Run()
	return errb.String(), err
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
		stderr, err := nordsim(t, append(workload, arg)...)
		if err == nil || !strings.Contains(stderr, "-"+name) {
			t.Errorf("%s with -benchmark: err %v, stderr %q; want a refusal naming the flag", arg, err, stderr)
		}
	}
	for _, read := range [][]string{
		nil,
		{"-design", "conv_pg", "-seed", "3", "-wakeup", "8", "-topology", "mesh", "-csv"},
	} {
		if stderr, err := nordsim(t, append(workload, read...)...); err != nil {
			t.Errorf("-benchmark with %v: %v\n%s", read, err, stderr)
		}
	}
	// Without -benchmark every one of them is an ordinary synthetic flag.
	if stderr, err := nordsim(t, "-width", "8", "-height", "8", "-rate", "0.02", "-measure", "500", "-warmup", "100", "-forced-off"); err != nil {
		t.Errorf("synthetic run: %v\n%s", err, stderr)
	}
}
