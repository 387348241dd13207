// Package detcheck holds the determinism analyzer: a test that
// type-checks the step-executing packages and fails on any range over a
// map whose body does something the order of iteration leaks into.
//
// Go randomizes map iteration order, so such a loop makes a step depend
// on more than (state, input): a seeded simulation stops being a
// function of its seed, DPOR fingerprints and WAL replay stop matching
// the run they record, and the failure is rare and unreproducible.
// Twice such a loop was found by accident (map-order sends in core, in
// commdl and in the WFGD edge lists); this test finds the next one.
package detcheck

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checked are the packages whose steps must be functions of (state,
// input): the protocol engines, the runtime they run on, the wait-for
// graph oracle and the cluster control plane.
var checked = []string{"core", "commdl", "ddb", "engine", "wfg", "baseline", "cluster"}

// sinkPrefixes name the calls that make a loop body order-sensitive:
// sending a message, scheduling or posting work, deferring an effect.
// A call matches when its function or method name, lower-cased, starts
// with one of them.
var sinkPrefixes = []string{"send", "post", "defer", "after", "schedule"}

// sortFuncs are the calls that, applied to a slice after the loop that
// filled it, erase the map order from it. So does a call to any
// function whose name starts with "sort", such as a package's own
// sortAgentEdges.
var sortFuncs = map[string]bool{
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true, "sort.Stable": true,
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// unorderedTag marks a map range whose order does not matter, with the
// reason after it. It goes on the line of the for statement or the line
// above it.
const unorderedTag = "//det:unordered"

// TestMapRangeOrderDoesNotLeak fails on every range over a map whose
// body sends (by call or on a channel), schedules, posts or defers
// work, appends to a slice that is not sorted after the loop, or
// returns a value derived from the loop's key or element. Such a loop
// either iterates a sorted key list instead, sorts what it built, or
// carries //det:unordered <reason>.
func TestMapRangeOrderDoesNotLeak(t *testing.T) {
	fset := token.NewFileSet()
	// With cgo on, the source importer runs cgo over net and os/user
	// for types the checked packages never use.
	build.Default.CgoEnabled = false
	imp := importer.ForCompiler(fset, "source", nil)
	for _, name := range checked {
		dir := filepath.Join("..", name)
		for _, f := range checkPackage(t, fset, imp, dir) {
			t.Errorf("%s", f)
		}
	}
}

// checkPackage parses and type-checks the non-test files of dir and
// returns one finding per way a map range lets its order out.
func checkPackage(t *testing.T, fset *token.FileSet, imp types.Importer, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		n := e.Name()
		if !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(dir, fset, files, info); err != nil {
		t.Fatalf("type-check %s: %v", dir, err)
	}
	var findings []string
	for _, f := range files {
		tagged := unorderedLines(t, fset, f)
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok || !isMap(info, rs.X) {
					return true
				}
				line := fset.Position(rs.For).Line
				if tagged[line] || tagged[line-1] {
					return true
				}
				for _, why := range leaks(info, fn.Body, rs) {
					findings = append(findings, fset.Position(rs.For).String()+": range over map "+types.ExprString(rs.X)+" "+why)
				}
				return true
			})
		}
	}
	return findings
}

// unorderedLines returns the lines that carry the unordered tag. A tag
// without a reason is itself a finding.
func unorderedLines(t *testing.T, fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, unorderedTag) {
				continue
			}
			if strings.TrimSpace(strings.TrimPrefix(c.Text, unorderedTag)) == "" {
				t.Errorf("%s: %s needs a reason", fset.Position(c.Pos()), unorderedTag)
				continue
			}
			lines[fset.Position(c.Pos()).Line] = true
		}
	}
	return lines
}

func isMap(info *types.Info, x ast.Expr) bool {
	tv, ok := info.Types[x]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// leaks lists what in rs's body lets the map order out. body is the
// enclosing function's, searched for a sort after the loop.
func leaks(info *types.Info, body *ast.BlockStmt, rs *ast.RangeStmt) []string {
	vars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				vars[obj] = true
			} else if obj := info.Uses[id]; obj != nil {
				vars[obj] = true
			}
		}
	}
	var why []string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			why = append(why, "sends on a channel")
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if mentions(info, r, vars) {
					why = append(why, "returns its key or element")
					break
				}
			}
		case *ast.CallExpr:
			name := calleeName(n.Fun)
			if id, ok := n.Fun.(*ast.Ident); ok && name == "append" && info.Uses[id] == types.Universe.Lookup("append") {
				if len(n.Args) > 0 && !sortedAfter(body, rs, types.ExprString(n.Args[0])) {
					why = append(why, "appends to "+types.ExprString(n.Args[0])+", which is not sorted after the loop")
				}
				return true
			}
			lower := strings.ToLower(name)
			for _, p := range sinkPrefixes {
				if strings.HasPrefix(lower, p) {
					why = append(why, "calls "+name)
					break
				}
			}
		}
		return true
	})
	return why
}

func calleeName(fun ast.Expr) string {
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	case *ast.IndexExpr: // generic instantiation
		return calleeName(f.X)
	}
	return ""
}

// mentions reports whether e refers to any of vars.
func mentions(info *types.Info, e ast.Expr, vars map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && vars[info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// sortedAfter reports whether body sorts the slice spelled target after
// rs ends.
func sortedAfter(body *ast.BlockStmt, rs *ast.RangeStmt, target string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || len(call.Args) == 0 {
			return !found
		}
		isSort := sortFuncs[types.ExprString(call.Fun)] || strings.HasPrefix(calleeName(call.Fun), "sort")
		if isSort && types.ExprString(call.Args[0]) == target {
			found = true
		}
		return !found
	})
	return found
}
