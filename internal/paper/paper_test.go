package paper

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"nord/internal/noc"
	"nord/internal/sim"
)

const (
	docPath    = "../../EXPERIMENTS.md"
	blockBegin = "<!-- conformance:begin -->\n"
	blockEnd   = "<!-- conformance:end -->"
)

// TestPaperConformance runs every row at its quick cell and checks every
// band, then compares EXPERIMENTS.md's conformance block with the one the
// run renders: one line per check, with the paper's value beside its
// band and the quick cell's value. On drift it prints the fresh block.
// A run of some rows (-run 'TestPaperConformance/fig14') checks their
// bands only.
func TestPaperConformance(t *testing.T) {
	env, ran := Env{}, 0
	var block strings.Builder
	block.WriteString("| row | check | paper | band | quick cell |\n|---|---|---|---|---|\n")
	for _, r := range Rows() {
		t.Run(r.ID, func(t *testing.T) {
			ran++
			_, checks, err := r.Measure(context.Background(), env, r.Quick)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range checks {
				if !c.OK() {
					t.Errorf("%s = %.4g outside [%g, %g] (paper: %q)", c.Name, c.Got, c.Lo, c.Hi, c.Paper)
				}
				fmt.Fprintf(&block, "| %s | %s | %s | [%g, %g] | %.4g |\n", r.ID, c.Name, c.Paper, c.Lo, c.Hi, c.Got)
			}
		})
	}
	if ran < len(Rows()) {
		return // a -run filter left rows out: the block cannot be rendered
	}
	doc, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok1 := strings.Cut(string(doc), blockBegin)
	committed, _, ok2 := strings.Cut(rest, blockEnd)
	if !ok1 || !ok2 {
		t.Fatalf("%s has no %q ... %q block", docPath, blockBegin, blockEnd)
	}
	if committed != block.String() {
		t.Errorf("%s's conformance block is stale; replace it with:\n%s%s%s", docPath, blockBegin, block.String(), blockEnd)
	}
}

// TestRowsAreWellFormed: ids are unique, every band is ordered, and every
// row that runs simulations has both cells.
func TestRowsAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Rows() {
		if seen[r.ID] {
			t.Errorf("duplicate row id %q", r.ID)
		}
		seen[r.ID] = true
		if (r.Full.Seed == 0) != (r.Quick.Seed == 0) {
			t.Errorf("%s: a row with one cell needs the other", r.ID)
		}
		for _, c := range r.Checks {
			if !(c.Lo <= c.Hi) {
				t.Errorf("%s: %s band [%g, %g] is empty", r.ID, c.Name, c.Lo, c.Hi)
			}
		}
	}
}

func TestTableFormats(t *testing.T) {
	tab := Table{Title: "title", Header: []string{"a", "b"}, Rows: [][]string{{"1", "x,y"}}}
	var md, csv bytes.Buffer
	if err := tab.Markdown(&md); err != nil {
		t.Fatal(err)
	}
	if want := "title\n\n| a | b |\n|---|---|\n| 1 | x,y |\n\n"; md.String() != want {
		t.Errorf("markdown:\n%q\nwant\n%q", md.String(), want)
	}
	if err := tab.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if want := "# title\na,b\n1,\"x,y\"\n"; csv.String() != want {
		t.Errorf("csv:\n%q\nwant\n%q", csv.String(), want)
	}
}

// TestParallelSuiteSmall: the suite's cells run on the pool, progress is
// told of each one, one call at a time (the callback is deliberately not
// thread-safe; -race checks that), and every cell keeps its result.
func TestParallelSuiteSmall(t *testing.T) {
	var started []string
	prev := runtime.GOMAXPROCS(4)
	sr, err := RunSuite(context.Background(), 0.002, 3, func(cell string) { started = append(started, cell) })
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(sr.Benchmarks) * len(noc.Designs()); len(started) != want {
		t.Errorf("progress told of %d cells, want %d", len(started), want)
	}
	for _, b := range sr.Benchmarks {
		for _, d := range noc.Designs() {
			if sr.Results[b][d].ExecTime == 0 {
				t.Errorf("%s/%v: missing result", b, d)
			}
		}
	}
	// A pooled cell equals the same cell run alone.
	alone, err := sim.RunWorkloadOpts(context.Background(), sim.WorkloadConfig{Design: noc.NoRD, Benchmark: "x264", Scale: 0.002, Seed: 3}, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sr.Results["x264"][noc.NoRD]; got.ExecTime != alone.ExecTime || got.AvgPacketLatency != alone.AvgPacketLatency || got.IdleLEBET != alone.IdleLEBET {
		t.Errorf("pooled x264/NoRD %+v differs from the run alone %+v", got, alone)
	}
}

// TestSuiteCSVPrecision: the raw suite table round-trips values above 1e8
// ('g' with 8 significant digits used to corrupt them).
func TestSuiteCSVPrecision(t *testing.T) {
	tables, _ := suiteCells(&SuiteResult{
		Benchmarks: []string{"b"},
		Results: map[string]map[noc.Design]sim.Result{"b": {
			noc.NoPG: {AvgPowerW: 3.00000004e8},
		}},
	})
	var buf bytes.Buffer
	if err := tables[0].CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("3.00000004e+08")) {
		t.Fatalf("suite CSV lost precision on 3.00000004e8:\n%s", buf.String())
	}
}

// TestNormalisedZeroReference: a benchmark whose reference design
// measured zero (e.g. a degenerate run that delivered no flits) must
// surface as NaN, not as a silent 0 — and must not drag the per-design
// averages down.
func TestNormalisedZeroReference(t *testing.T) {
	sr := &SuiteResult{
		Benchmarks: []string{"good", "degenerate"},
		Results: map[string]map[noc.Design]sim.Result{
			"good": {
				noc.NoPG: {Design: noc.NoPG, ExecTime: 100},
				noc.NoRD: {Design: noc.NoRD, ExecTime: 50},
			},
			"degenerate": {
				noc.NoPG: {Design: noc.NoPG, ExecTime: 0},
				noc.NoRD: {Design: noc.NoRD, ExecTime: 50},
			},
		},
	}
	rows, avg := sr.normalised(func(r sim.Result) float64 { return float64(r.ExecTime) }, noc.NoPG)

	if got := rows["good"][noc.NoRD]; got != 0.5 {
		t.Errorf("good row normalises to %v, want 0.5", got)
	}
	for _, d := range []noc.Design{noc.NoPG, noc.NoRD} {
		if got := rows["degenerate"][d]; !math.IsNaN(got) {
			t.Errorf("degenerate row %v = %v, want NaN marker", d, got)
		}
	}
	// Averages use only the valid row.
	if got := avg[noc.NoRD]; got != 0.5 {
		t.Errorf("NoRD average = %v, want 0.5 (degenerate row excluded)", got)
	}
	if got := avg[noc.NoPG]; got != 1.0 {
		t.Errorf("NoPG average = %v, want 1.0", got)
	}

	// All references zero: averages themselves carry the marker.
	sr.Benchmarks = []string{"degenerate"}
	_, avg = sr.normalised(func(r sim.Result) float64 { return float64(r.ExecTime) }, noc.NoPG)
	if !math.IsNaN(avg[noc.NoRD]) {
		t.Errorf("all-degenerate average = %v, want NaN", avg[noc.NoRD])
	}
}
