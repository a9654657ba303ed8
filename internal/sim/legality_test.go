package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestOneLegalityOwner keeps "may this config run?" in one place
// (DESIGN.md §8, "Legality"): no non-test file outside sim and the
// packages whose tables it reads (noc, traffic, memsys) may look a
// pattern or a benchmark up by name, or name noc's grid and VC limits.
// A layer above asks SynthConfig, WorkloadConfig or SweepConfig.Validate
// instead of restating the rule.
func TestOneLegalityOwner(t *testing.T) {
	owners := []string{"internal/sim", "internal/noc", "internal/traffic", "internal/memsys"}
	banned := map[string]bool{
		"nord/internal/traffic.PatternByName": true,
		"nord/internal/memsys.ProfileByName":  true,
		"nord/internal/noc.MaxGridDim":        true,
		"nord/internal/noc.MaxVCsPerPort":     true,
	}
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(p string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if de.IsDir() {
			// bench is a module of its own; dot directories and testdata
			// hold no package source.
			if rel == "bench" || rel == "testdata" || strings.HasSuffix(rel, "/testdata") ||
				rel != "." && strings.HasPrefix(de.Name(), ".") || slices.Contains(owners, rel) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		imports := map[string]string{} // local name -> import path
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && banned[imports[pkg.Name]+"."+sel.Sel.Name] {
				t.Errorf("%s:%d names %s.%s: which configs may run is sim's to say; ask its Validate",
					rel, fset.Position(sel.Pos()).Line, pkg.Name, sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 40 {
		t.Fatalf("walked only %d files: wrong root?", files)
	}
}
