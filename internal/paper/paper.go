// Package paper is the table of the paper's experiments. Each row is one
// figure, section or ablation: the cells it runs at, a runner that
// measures it into tables, and the banded checks TestPaperConformance
// applies. cmd/nordpaper prints the rows, the test checks them, and
// EXPERIMENTS.md's conformance block is rendered from them; nothing else
// computes a figure.
package paper

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Table is one rendered table: a title, a header and string rows.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Markdown writes t as its title and a markdown pipe table, the one text
// form the terminal and EXPERIMENTS.md share.
func (t Table) Markdown(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n| %s |\n%s|\n", t.Title, strings.Join(t.Header, " | "), strings.Repeat("|---", len(t.Header)))
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(r, " | "))
	}
	_, err := io.WriteString(w, b.String()+"\n")
	return err
}

// CSV writes t's title as a "# title" comment line (csv.Reader skips it
// with Comment = '#'), then its header and rows.
func (t Table) CSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
		return err
	}
	return csv.NewWriter(w).WriteAll(append([][]string{t.Header}, t.Rows...))
}

// Check is one banded assertion: Got must lie in [Lo, Hi]. Paper is the
// paper's value as text, empty for an experiment beyond the paper. An
// ordering the paper states ("NoRD's latency is below Conv_PG's") is a
// ratio whose band stays on one side of 1.
type Check struct {
	Name   string
	Paper  string
	Got    float64
	Lo, Hi float64
}

// OK reports whether Got lies in the band.
func (c Check) OK() bool { return c.Got >= c.Lo && c.Got <= c.Hi }

// Cell fixes every input a row's runner reads. A row's Full cell is the
// one EXPERIMENTS.md records; its Quick cell runs in tier-1 test time and
// is the one the bands were taken at.
type Cell struct {
	Seed int64
	// Scale is the suite's instruction-count scale (1.0 = 60k
	// instructions per core).
	Scale float64
	// Measure is the measured cycles of each synthetic point, after the
	// default 10k-cycle warm-up.
	Measure int
	// Rates are the offered loads, flits/node/cycle.
	Rates []float64
	// Knobs is the row's swept integer axis: wakeup latencies,
	// thresholds or misroute caps.
	Knobs []int
}

// Row is one experiment of the paper's evaluation.
type Row struct {
	ID          string
	Full, Quick Cell
	Run         Runner
	// Checks are the row's bands, taken at Quick; Got is unset here.
	Checks []Check
}

// Measure runs r at c, sharing e's suite runs with the other rows: its
// tables, and its checks with Got filled.
func (r Row) Measure(ctx context.Context, e Env, c Cell) ([]Table, []Check, error) {
	tables, got, err := r.Run(ctx, e, c)
	if err != nil {
		return nil, nil, fmt.Errorf("paper: %s: %w", r.ID, err)
	}
	checks := slices.Clone(r.Checks)
	for i := range checks {
		var ok bool
		if checks[i].Got, ok = got[checks[i].Name]; !ok {
			return nil, nil, fmt.Errorf("paper: %s measured no value for check %q", r.ID, checks[i].Name)
		}
	}
	return tables, checks, nil
}

// Env shares work between the rows one process runs: the rows of
// Figures 3 and 8–12 read one suite run per (scale, seed). Make it with
// Env{}; it is not safe for concurrent use.
type Env map[suiteKey]*SuiteResult

type suiteKey struct {
	scale float64
	seed  int64
}

// suite returns the suite run at c's scale and seed, running it once.
func (e Env) suite(ctx context.Context, c Cell) (*SuiteResult, error) {
	key := suiteKey{c.Scale, c.Seed}
	if e[key] == nil {
		sr, err := RunSuite(ctx, c.Scale, c.Seed, nil)
		if err != nil {
			return nil, err
		}
		e[key] = sr
	}
	return e[key], nil
}
