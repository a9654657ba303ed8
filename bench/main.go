// Command bench is the repo's whole-stack benchmark ladder: eight
// workloads that each stress a different layer of kernel → sim → serve →
// fleet → search, measured from outside through the layers' public
// functions. BENCHMARK.json names what it emits; README.md says why.
//
//	bash bench/run.sh --workload kernel_busy --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh                  # every workload, one child process each
//	bash bench/run.sh -trace 1         # the traced runs: per-layer metrics + bench/out/trace-*.json
//	bash bench/run.sh -aa              # every workload twice on one build, differences beside the bounds
//	bash bench/run.sh -quick           # every workload at 1/20 size in one process (smoke test)
//
// The last line of a single-workload run is the result object the driver
// reads: {"correct":…,"attempted":…,"failed":…,"metrics":{…}}.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

//go:embed golden.json
var goldenJSON []byte

// goldenFile is bench/golden.json: result digests for goldenSeed.
type goldenFile struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func newWorkload(cfg *config) workload {
	switch cfg.workload {
	case "kernel_nord_low":
		return newKernelNordLow(cfg)
	case "kernel_busy":
		return newKernelBusy(cfg)
	case "sweep_short":
		return newSweepShort(cfg)
	case "suite_parsec":
		return newSuiteParsec(cfg)
	case "serve_closed":
		return newServeWorkload(cfg, modeClosed)
	case "serve_cache_hit":
		return newServeWorkload(cfg, modeHit)
	case "fleet_durable":
		return newServeWorkload(cfg, modeFleet)
	case "search_nsga2":
		return newSearchNSGA2(cfg)
	}
	panic("unknown workload " + cfg.workload) // findWorkload vets names first
}

// resultLine is the object printed last by a single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name         = flag.String("workload", "", "run this workload only and end with the result line (default: all, one child process each)")
		seed         = flag.Int64("seed", goldenSeed, "derives every traffic, job and search seed")
		seconds      = flag.Float64("seconds", 10, "length of the measured window")
		trace        = flag.Int("trace", 0, "1: traced run — per-layer metrics and bench/out/trace-<workload>.json")
		quick        = flag.Bool("quick", false, "every workload at 1/20 size, in this process; never a source of recorded numbers")
		aa           = flag.Bool("aa", false, "run every workload twice and compare each end-to-end metric with its bound")
		updateGolden = flag.Bool("update-golden", false, "rewrite bench/golden.json (benchmark-archetype PRs only)")
		setupOnlyF   = flag.Bool("setup-only", false, "internal: run the workload's set-up and print its duration")
	)
	flag.Parse()
	err := func() error {
		cfg, err := newConfig(*name, *seed, *seconds, *trace != 0, *quick)
		if err != nil {
			return err
		}
		switch {
		case *updateGolden:
			return writeGolden(cfg.root)
		case *setupOnlyF:
			return setupOnly(cfg)
		case *aa:
			return runAA(cfg)
		case *name == "" && *quick:
			return runQuick(cfg)
		case *name == "":
			return runSet(cfg)
		}
		return runOne(cfg)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect ends a run whose result line said correct:false.
var errIncorrect = errors.New("correctness check failed")

func newConfig(workload string, seed int64, seconds float64, trace, quick bool) (*config, error) {
	if workload != "" {
		if _, err := findWorkload(workload); err != nil {
			return nil, err
		}
	}
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	var golden goldenFile
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	cfg := &config{workload: workload, seed: seed, seconds: seconds, trace: trace, quick: quick, root: root, golden: golden.Digests}
	if !quick && !trace {
		cfg.setupRepeats = 2
	}
	return cfg, nil
}

// runOne is the driver's mode: one workload, ending with the result line.
func runOne(cfg *config) error {
	rep, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	fmt.Println(hostFacts())
	printReport(cfg, rep)
	line, err := json.Marshal(resultLine{rep.correct, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.correct {
		return errIncorrect
	}
	return nil
}

// runQuick runs every workload at 1/20 size in this process, so the
// planner memo and the peak RSS carry over from one to the next.
func runQuick(cfg *config) error {
	fmt.Println(hostFacts())
	for _, w := range workloadDefs {
		c := *cfg
		c.workload = w.Name
		rep, err := runWorkload(&c)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		printReport(&c, rep)
		if !rep.correct {
			return fmt.Errorf("%s: %w", w.Name, errIncorrect)
		}
	}
	return nil
}

func printReport(cfg *config, rep *report) {
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%t quick=%t attempted=%d failed=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.quick, rep.attempted, rep.failed)
	for _, l := range rep.lines {
		fmt.Println("  " + l)
	}
}

// findRoot locates the checkout root (the directory holding
// BENCHMARK.json) from the working directory, so both bench/run.sh and
// `go run -C bench .` work.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d, nil
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("no BENCHMARK.json in %s or above it", dir)
		}
	}
}

// runChild runs one workload in a child process, so that it starts with a
// cold planner memo and has its own peak RSS, and returns its result line.
func runChild(cfg *config, workload string) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if cfg.trace {
		traceArg = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'f', -1, 64), "-trace", traceArg)
	cmd.Dir = cfg.root
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
	last := lines[len(lines)-1]
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(l)
	}
	var res resultLine
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		fmt.Println(last)
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	return &res, nil
}

// runSet runs every workload once, each in its own process.
func runSet(cfg *config) error {
	var bad []string
	for _, w := range workloadDefs {
		res, err := runChild(cfg, w.Name)
		if err != nil {
			return err
		}
		if !res.Correct {
			bad = append(bad, w.Name)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%w on %s", errIncorrect, strings.Join(bad, ", "))
	}
	return nil
}

// runAA runs every workload twice on the same build, the two runs of a
// workload back to back so that a slow stretch of the host falls on both,
// and holds each end-to-end metric's difference against its bound: a
// metric that cannot agree with itself cannot gate a change.
func runAA(cfg *config) error {
	outside, incorrect := 0, 0
	var table []string
	for _, w := range workloadDefs {
		var runs [2]*resultLine
		for i := range runs {
			res, err := runChild(cfg, w.Name)
			if err != nil {
				return err
			}
			if !res.Correct {
				incorrect++
			}
			runs[i] = res
		}
		for _, m := range endToEnd {
			a, b := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  OUTSIDE"
				outside++
			}
			table = append(table, fmt.Sprintf("%-18s %-14s %14.4f %14.4f %8.2f%% %6.0f%%%s", w.Name, m.Name, a, b, 100*worse, 100*m.Bound, verdict))
		}
	}
	fmt.Printf("%-18s %-14s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, row := range table {
		fmt.Println(row)
	}
	switch {
	case incorrect > 0:
		return fmt.Errorf("%w in %d runs", errIncorrect, incorrect)
	case outside > 0:
		return fmt.Errorf("%d metric x workload pairs differ by more than their bound between two runs of the same build", outside)
	}
	return nil
}

// writeGolden recomputes every digest, full size and quick, at goldenSeed.
func writeGolden(root string) error {
	digests := map[string]string{}
	for _, quick := range []bool{false, true} {
		for _, w := range workloadDefs {
			cfg := &config{workload: w.Name, seed: goldenSeed, seconds: 0, quick: quick, root: root}
			e, err := newEnv(cfg)
			if err != nil {
				return err
			}
			wl := newWorkload(cfg)
			err = wl.setup(e)
			var digest string
			if err == nil {
				digest, err = wl.round(e)
			}
			wl.close()
			e.cleanup()
			if err != nil {
				return fmt.Errorf("%s: %w", cfg.goldenKey(), err)
			}
			if e.failed.Load() > 0 {
				return fmt.Errorf("%s: %s", cfg.goldenKey(), strings.Join(e.failures, "; "))
			}
			digests[cfg.goldenKey()] = digest
			fmt.Printf("%-24s %s\n", cfg.goldenKey(), digest)
		}
	}
	b, err := json.MarshalIndent(goldenFile{Seed: goldenSeed, Digests: digests}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "bench", "golden.json"), append(b, '\n'), 0o644)
}
