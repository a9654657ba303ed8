package noc

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nord/internal/topology"
)

// TestDesignTable: the network New builds agrees with its design's row on
// every topology, and every spelling a design has ever answered to still
// names it.
func TestDesignTable(t *testing.T) {
	for _, kind := range []topology.Kind{topology.KindMesh, topology.KindTorus, topology.KindCMesh} {
		for _, d := range Designs() {
			row := d.row()
			p := DefaultParams(d)
			p.Topology = kind
			n := MustNew(p)
			if (n.Ring() != nil) != row.blocks.Bypass {
				t.Errorf("%v on %v: ring %v, row says bypass=%v", d, kind, n.Ring() != nil, row.blocks.Bypass)
			}
			if row.blocks.PGSwitch != (row.wake != wakeNever) {
				t.Errorf("%v: a PG switch and a wake rule come together; row %+v", d, *row)
			}
			if n.wake != row.wake || d.Blocks() != row.blocks {
				t.Errorf("%v on %v: resolved wake %v blocks %+v, row %+v", d, kind, n.wake, d.Blocks(), *row)
			}
			// An idle network gates its routers off exactly when the row
			// carries a PG switch: that is the controller ticking.
			n.Run(200)
			off := 0
			for _, r := range n.routers {
				if r.state == powerOff {
					off++
				}
			}
			if want := map[bool]int{true: n.nn}[row.blocks.PGSwitch]; off != want {
				t.Errorf("%v on %v: %d of %d idle routers gated off, want %d", d, kind, off, n.nn, want)
			}
			wantVCs := 2
			if row.blocks.Bypass || kind == topology.KindTorus {
				wantVCs = 3
			}
			if got := MinVCs(d, kind); got != wantVCs {
				t.Errorf("MinVCs(%v, %v) = %d, want %d", d, kind, got, wantVCs)
			}
		}
	}

	if len(Designs()) != NumDesigns {
		t.Fatalf("Designs() has %d entries for %d rows", len(Designs()), NumDesigns)
	}
	for _, d := range Designs() {
		for _, s := range []string{d.String(), strings.ToLower(d.String()), " " + strings.ToUpper(d.String()) + "\t"} {
			if got, err := DesignByName(s); err != nil || got != d {
				t.Errorf("DesignByName(%q) = %v, %v; want %v", s, got, err, d)
			}
		}
	}
	aliases := map[string]Design{
		"no_pg": NoPG, "nopg": NoPG, "baseline": NoPG,
		"conv_pg": ConvPG, "conv": ConvPG, "convpg": ConvPG,
		"conv_pg_opt": ConvPGOpt, "opt": ConvPGOpt, "convpgopt": ConvPGOpt, "OPT": ConvPGOpt,
		"nord": NoRD,
	}
	for s, want := range aliases {
		if got, err := DesignByName(s); err != nil || got != want {
			t.Errorf("DesignByName(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	_, err := DesignByName("Wu")
	if want := `noc: unknown design "Wu" (no_pg, conv_pg, conv_pg_opt, nord)`; err == nil || err.Error() != want {
		t.Errorf("unknown name: got %v, want %s", err, want)
	}

	p := DefaultParams(Design(NumDesigns))
	if err := p.Validate(); err == nil {
		t.Error("a design outside the table validated")
	}
	if b := Design(-1).Blocks(); b != NoPG.Blocks() {
		t.Errorf("a design outside the table has blocks %+v", b)
	}
}

// designUses lists the comparisons against a design constant that
// TestNoDesignBranchesOutsideTable lets stand outside design.go, as
// "file: expression". Only data uses belong here — picking the row a
// figure normalises to, say — never a question about what hardware a
// design has: that is a column of the table.
var designUses = map[string]bool{}

// TestNoDesignBranchesOutsideTable keeps the seam closed: no non-test
// file under internal/ or cmd/ may compare against, or switch on, a
// design constant — the kernel reads the columns New resolved, everything
// else reads Design.Blocks().
func TestNoDesignBranchesOutsideTable(t *testing.T) {
	isDesign := func(e ast.Expr) bool {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			e = sel.Sel
		}
		id, ok := e.(*ast.Ident)
		return ok && (id.Name == "NoPG" || id.Name == "ConvPG" || id.Name == "ConvPGOpt" || id.Name == "NoRD")
	}
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	files := 0
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, de fs.DirEntry, err error) error {
			if err != nil || de.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			rel = filepath.ToSlash(rel)
			if rel == "internal/noc/design.go" {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files++
			src := func(n ast.Node) string {
				return fmt.Sprintf("%s: %s", rel, exprString(fset, n))
			}
			ast.Inspect(f, func(n ast.Node) bool {
				var site string
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if (n.Op == token.EQL || n.Op == token.NEQ) && (isDesign(n.X) || isDesign(n.Y)) {
						site = src(n)
					}
				case *ast.CaseClause:
					for _, e := range n.List {
						if isDesign(e) {
							site = src(e)
						}
					}
				}
				if site != "" && !designUses[site] {
					t.Errorf("%s (line %d) branches on a design constant; read the designs table instead",
						site, fset.Position(n.Pos()).Line)
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 50 {
		t.Fatalf("walked only %d files: wrong root?", files)
	}
}

// TestOneAllocator keeps the datapath rules single (DESIGN.md §4 "Rules
// are stated once"): in this package's non-test files an output VC is
// claimed, and a packet's escape/dateline/misroute state written, only by
// Router.grant — the VA stage and the three NI paths all call it — and
// the mid-bypass flit counts are written only by accountBypassFlit.
func TestOneAllocator(t *testing.T) {
	// field -> the one function that may write it.
	writer := map[string]string{
		"outOwner": "Router.grant", "Escaped": "Router.grant", "EscapeVC": "Router.grant", "Misroutes": "Router.grant",
		"bypassRemaining": "Router.accountBypassFlit", "bypassSum": "Router.accountBypassFlit",
	}
	seen := map[string]bool{}
	for _, w := range packageWrites(t, ".") {
		field, depth := w.field()
		rhs, _ := w.rhs.(*ast.Ident)
		switch {
		case writer[field] == "":
			continue
		case field == "outOwner" && (depth != 2 || rhs != nil && rhs.Name == "ownerFree"):
			continue // freeing is the one store to outOwner anybody may make
		case field == "bypassRemaining" && depth != 1:
			continue // initRouter makes the slice
		}
		if w.fn == writer[field] {
			seen[field] = true
			continue
		}
		t.Errorf("%s: %s writes %s in %s; only %s may", w.at, w.stmt, field, w.fn, writer[field])
	}
	for field, fn := range writer {
		if !seen[field] {
			t.Errorf("%s is never written in %s: the rule moved, update this test", field, fn)
		}
	}
}

// TestCountedOnce keeps each datapath statistic single (DESIGN.md §7
// "Counted once"): an event is counted on the Router or NI that saw it,
// by one function, inside the measured window — a priced event into the
// router's power.Events record, whose counts package power writes only in
// Events.Add and Events.Sub; the collector's datapath totals are sums
// foldStats derives from those counts, and the collector is written
// directly only where it is sampled (the delivered-packet statistics by
// deliverPacket, the idle periods by closeIdle, Cycles and
// PacketsInjected by the step); power-state residency is charged only by
// settle; the idle run is stamped only by the idle sample (sampleIdle) and
// closed only by closeIdle; and NoRD's quiet run is a stamp only NI.tick
// writes. The allow-list is empty. The tracer (internal/obs) keeps
// events, not counts: there the only fields counted up are its own
// recording totals.
//
// Before this rule the walk found 14 twin write sites: the collector's
// SAArbs, Wakeups, GateOffs and BypassHops in noteSAGrant, noteWakeup,
// noteGateOff and noteBypassHop; RouterOn/Off/WakingCycles both in
// runSection's stats pass and in the dormant back-fill at activation (6);
// statSAGrants twice in tickSA and statBypassFlits in
// tryAggressiveForward and tickBypass. The quiet run (then a counter) was
// written in NI.tick twice, the back-fill and runSection. Wakes by cause,
// detours and escapes were then counted only by the tracer, in a
// per-router summary updated on every emit, warm-up included: the obs walk
// below found 12 write sites over 11 fields there. Idle and busy cycles
// were last: a per-router tracker object fed every cycle and back-filled
// at activation, whose totals FinishMeasurement added to the collector on
// every call. The last seven event counts and the wake-stall sample were
// kept in per-shard collectors and folded by Merge: the collector walk
// found 8 write sites there, in sendLinkDelay, tickDeliver and six note
// helpers.
func TestCountedOnce(t *testing.T) {
	derived := []string{"Network.foldStats"}
	settle := []string{"Router.settle"}
	writers := map[string][]string{
		"Events": derived, "GateOffs": derived, "MisroutedHops": derived, "EscapedPackets": derived,
		"IdleCycles": derived, "BusyCycles": derived, "WakeupStall": derived, "NIVCRequests": derived,
		// A router's record of priced events (power.Events), its NI's
		// events included: one writer per count.
		"BufWrites":        {"Network.noteBufWrite"},
		"SAGrants":         {"Network.noteSAGrant"},
		"VAGrants":         {"Network.noteVAGrant"},
		"LinkTraversals":   {"Network.sendLinkDelay"},
		"BypassHops":       {"Network.noteBypassHop"},
		"BypassInjections": {"Network.noteBypassInject"},
		"BypassEjections":  {"Network.noteBypassEject"},
		"LocalFlits":       {"NI.tickDeliver"},
		"Wakes":            {"Router.tickController"},
		"OnCycles":         settle, "OffCycles": settle, "WakingCycles": settle, "resFrom": settle,
		"statIdle":       {"Router.closeIdle"},
		"idling":         {"Router.sampleIdle", "Network.BeginMeasurement"},
		"idleFrom":       {"Router.sampleIdle", "Router.closeIdle", "Network.BeginMeasurement"},
		"statGateOffs":   {"Router.gateOff"},
		"statMisroutes":  {"Network.noteMisroute"},
		"statEscapes":    {"Network.noteEscape"},
		"statWakeStall":  {"Network.noteWakeStall"},
		"statVCRequests": {"NI.tick"},
		"quietSince":     {"NI.tick"},
	}
	// A collector field is written through a collector (".col.F") only
	// where it is sampled: the delivered-packet statistics by
	// deliverPacket, the idle periods by closeIdle, and Cycles and
	// PacketsInjected by the step.
	delivered := "Network.deliverPacket"
	colWriters := map[string]string{
		"PacketsDelivered": delivered, "FlitsDelivered": delivered,
		"LatencyHist": delivered, "NetworkLatency": delivered, "Hops": delivered,
		"IdlePeriods": "Router.closeIdle",
		"Cycles":      "Network.stepStats", "PacketsInjected": "Network.notePacketInjected",
	}
	allowed := map[string]bool{} // "Type.func: statement" sites let stand
	seen := map[string]bool{}
	for _, w := range packageWrites(t, ".") {
		field, _ := w.field()
		if sel, ok := w.lhs.(*ast.SelectorExpr); ok {
			if col, ok := sel.X.(*ast.SelectorExpr); ok && col.Sel.Name == "col" {
				if want := colWriters[field]; want != w.fn {
					if want == "" {
						want = "Network.foldStats, from the Router and NI records,"
					}
					t.Errorf("%s: %s writes collector field %s in %s; only %s may", w.at, w.stmt, field, w.fn, want)
				}
				seen["col."+field] = true
			}
		}
		fns, counted := writers[field]
		if !counted || allowed[w.fn+": "+w.stmt] {
			continue
		}
		if slices.Contains(fns, w.fn) {
			seen[field] = true
			continue
		}
		t.Errorf("%s: %s writes %s in %s; only %s may", w.at, w.stmt, field, w.fn, strings.Join(fns, " or "))
	}
	for field, fns := range writers {
		if !seen[field] {
			t.Errorf("%s is never written in %s: the rule moved, update this test", field, strings.Join(fns, " or "))
		}
	}
	for field, fn := range colWriters {
		if !seen["col."+field] {
			t.Errorf("collector field %s is never written in %s: the rule moved, update this test", field, fn)
		}
	}
	// In package power the priced counts are written only by the sum over
	// routers and the window difference.
	for _, w := range packageWrites(t, "../power") {
		field, _ := w.field()
		if _, counted := writers[field]; counted && w.fn != "Events.Add" && w.fn != "Events.Sub" {
			t.Errorf("%s: %s writes %s in %s; only Events.Add and Events.Sub may", w.at, w.stmt, field, w.fn)
		}
	}
	// The ring's fill and the recording totals behind Total, Dropped and
	// the bypass-hop sampling.
	tracerOwn := map[string]bool{"count": true, "total": true, "dropped": true, "hfSeen": true}
	obsWrites := packageWrites(t, "../obs")
	if len(obsWrites) == 0 {
		t.Fatal("no writes found in ../obs: wrong path?")
	}
	for _, w := range obsWrites {
		field, _ := w.field()
		inc, isInc := w.node.(*ast.IncDecStmt)
		asg, isAsg := w.node.(*ast.AssignStmt)
		counted := isInc && inc.Tok == token.INC || isAsg && asg.Tok == token.ADD_ASSIGN
		if counted && field != "" && !tracerOwn[field] {
			t.Errorf("%s: %s counts %s in %s; per-router counts live on the Router", w.at, w.stmt, field, w.fn)
		}
	}
}

// write is one assignment, ++/-- or Add/Merge target in a package's
// non-test code: where it is, the function it is in ("Type.method" or
// "func"), the statement as node and as source, and the value stored (nil
// for ++/--, for Add/Merge and for a tuple assigned from one call). A
// field's Add or Merge call (x.f.Add(v)) writes x.f: that is how a
// stats.Sample or stats.Histogram is filled.
type write struct {
	at, fn, stmt string
	node         ast.Stmt
	lhs, rhs     ast.Expr
}

// field returns the struct field a write targets ("" when it is not a
// field) and how many index expressions deep into it.
func (w write) field() (string, int) {
	lhs, depth := w.lhs, 0
	for ix, ok := lhs.(*ast.IndexExpr); ok; ix, ok = lhs.(*ast.IndexExpr) {
		lhs, depth = ix.X, depth+1
	}
	if sel, ok := lhs.(*ast.SelectorExpr); ok {
		return sel.Sel.Name, depth
	}
	return "", depth
}

// packageWrites parses the non-test files of the package in dir and
// returns every write in them.
func packageWrites(t *testing.T, dir string) []write {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var out []write
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				name = exprString(fset, recv) + "." + name
			}
			add := func(stmt ast.Stmt, lhs, rhs ast.Expr) {
				out = append(out, write{
					at: fmt.Sprintf("%s:%d", path, fset.Position(stmt.Pos()).Line),
					fn: name, stmt: exprString(fset, stmt), node: stmt, lhs: lhs, rhs: rhs,
				})
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						var rhs ast.Expr
						if len(n.Rhs) == len(n.Lhs) {
							rhs = n.Rhs[i]
						}
						add(n, lhs, rhs)
					}
				case *ast.IncDecStmt:
					add(n, n.X, nil)
				case *ast.ExprStmt:
					call, _ := n.X.(*ast.CallExpr)
					if call == nil {
						break
					}
					if m, ok := call.Fun.(*ast.SelectorExpr); ok && (m.Sel.Name == "Add" || m.Sel.Name == "Merge") {
						if _, field := m.X.(*ast.SelectorExpr); field {
							add(n, m.X, nil)
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// exprString renders a node as source text on one line.
func exprString(fset *token.FileSet, n ast.Node) string {
	var b strings.Builder
	if err := printer.Fprint(&b, fset, n); err != nil {
		return err.Error()
	}
	return strings.Join(strings.Fields(b.String()), " ")
}
