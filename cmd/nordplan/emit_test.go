package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// TestEmitPlansMatchesCommittedTable: what -emit-plans writes for the
// grids up to 10x10 is, byte for byte, the committed table without its
// larger entries — the generator and the file it generated have not
// drifted apart. (The larger entries take minutes; CI's bench job checks
// them with -verify-plans.)
func TestEmitPlansMatchesCommittedTable(t *testing.T) {
	committed, err := os.ReadFile("../../internal/topology/plans_gen.go")
	if err != nil {
		t.Fatal(err)
	}
	want := regexp.MustCompile(`(?m)^\t1[1-6]: .*\n`).ReplaceAll(committed, nil)
	if bytes.Equal(want, committed) {
		t.Fatal("the committed table has no entries above 10x10; the filter is stale")
	}
	got, err := planTableSource(100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-emit-plans -max-nodes 100 differs from the committed table's entries up to 10x10; run go generate ./internal/topology\n got:\n%s\nwant:\n%s", got, want)
	}
}
