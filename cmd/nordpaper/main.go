// Command nordpaper runs the paper's experiments from one table
// (internal/paper): each row is a figure, a section or an ablation, with
// its cells fixed as data.
//
//	nordpaper -fig fig14          # one row at the cell EXPERIMENTS.md records
//	nordpaper -fig all -quick     # every row at its test-sized cell
//	nordpaper -fig suite -csv     # every suite cell as CSV
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"nord/internal/paper"
	"nord/internal/profiling"
)

func main() {
	var ids []string
	for _, r := range paper.Rows() {
		ids = append(ids, r.ID)
	}
	var (
		fig        = flag.String("fig", "", "row to run, or all: "+strings.Join(ids, ", "))
		quick      = flag.Bool("quick", false, "run each row at its test-sized cell instead of the recorded one")
		csvOut     = flag.Bool("csv", false, "write the tables as CSV instead of markdown")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	rows := paper.Rows()
	if *fig != "all" {
		rows = slices.DeleteFunc(rows, func(r paper.Row) bool { return r.ID != *fig })
	}
	if len(rows) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err == nil {
		err = run(rows, *quick, *csvOut)
		stopProfiles()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run measures each row and writes its tables, then its checks beside
// the paper's values.
func run(rows []paper.Row, quick, csvOut bool) error {
	env := paper.Env{}
	for _, r := range rows {
		cell := r.Full
		if quick {
			cell = r.Quick
		}
		tables, checks, err := r.Measure(context.Background(), env, cell)
		if err != nil {
			return err
		}
		ct := paper.Table{Title: r.ID + ": paper vs measured", Header: []string{"check", "paper", "measured"}}
		for _, c := range checks {
			ct.Rows = append(ct.Rows, []string{c.Name, c.Paper, fmt.Sprintf("%.4g", c.Got)})
		}
		for _, t := range append(tables, ct) {
			write := t.Markdown
			if csvOut {
				write = t.CSV
			}
			if err := write(os.Stdout); err != nil {
				return err
			}
		}
	}
	return nil
}
