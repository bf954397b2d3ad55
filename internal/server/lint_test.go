package server

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneJobDriver keeps one code path per daemon job. In non-test
// internal/server the four job constructors are each named in one function,
// which hands them to drive, and a job's live or final is written only by
// drive and by recovery: drive writes live, and fold, which only flush (for
// drive) and recover call, writes final. A plan search there journals by reference: the
// storeless constructors, whose searches checkpoint inline, are named
// nowhere. And no non-test code outside internal/planner and bench/ names a
// search's Step or StepJournaled in a function that loops: a search advances
// through Search.Drive, so a second level loop is a second driver, with its
// own pacing, deadline and journal rules to keep in step with the first.
func TestOneJobDriver(t *testing.T) {
	constructors := map[string]map[string]bool{
		"centralium/internal/planner.NewSearchWith":    {},
		"centralium/internal/planner.ResumeSearchWith": {},
		"centralium/internal/guard.NewExecution":       {},
		"centralium/internal/guard.ResumeExecution":    {},
	}
	inline := map[string]bool{
		"centralium/internal/planner.NewSearch":    true,
		"centralium/internal/planner.ResumeSearch": true,
	}
	callsDrive := map[string]bool{}
	writers := map[string]bool{"drive": true, "recordTypes.fold": true}
	// callers are the functions allowed to call each writer of a final.
	callers := map[string]map[string]bool{
		"fold":  {"persistor.flush": true, "persistor.recover": true},
		"flush": {"drive": true},
	}
	lintGo(t, ".", func(fset *token.FileSet, imports map[string]string, fn *ast.FuncDecl) {
		name := funcName(fn)
		ast.Inspect(fn, func(node ast.Node) bool {
			switch n := node.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok {
					ctor := imports[id.Name] + "." + n.Sel.Name
					if constructors[ctor] != nil {
						constructors[ctor][name] = true
					}
					if inline[ctor] {
						t.Errorf("%s: %s names %s, whose search checkpoints inline", fset.Position(n.Pos()), name, ctor)
					}
				}
			case *ast.CallExpr:
				fun := n.Fun
				if ix, ok := fun.(*ast.IndexExpr); ok {
					fun = ix.X
				}
				if id, ok := fun.(*ast.Ident); ok && id.Name == "drive" {
					callsDrive[name] = true
				}
				if sel, ok := fun.(*ast.SelectorExpr); ok && callers[sel.Sel.Name] != nil && !callers[sel.Sel.Name][name] {
					t.Errorf("%s: %s calls %s, which writes a job's final — only drive and recovery do", fset.Position(sel.Pos()), name, sel.Sel.Name)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && (sel.Sel.Name == "live" || sel.Sel.Name == "final") && !writers[name] {
						t.Errorf("%s: %s writes a job's %s — only drive and recovery do", fset.Position(sel.Pos()), name, sel.Sel.Name)
					}
				}
			}
			return true
		})
	})
	for ctor, from := range constructors {
		if len(from) != 1 {
			t.Errorf("%s is named in %d functions %v, want one", ctor, len(from), from)
		}
		for f := range from {
			if !callsDrive[f] {
				t.Errorf("%s names %s but does not hand it to drive", f, ctor)
			}
		}
	}

	stepLoops := func(fset *token.FileSet, imports map[string]string, fn *ast.FuncDecl) {
		var loop token.Pos
		var step *ast.Ident
		ast.Inspect(fn, func(node ast.Node) bool {
			switch n := node.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				loop = n.Pos()
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && imports[id.Name] != "" {
					return true // a package-qualified name, such as the type planner.Step
				}
				if n.Sel.Name == "Step" || n.Sel.Name == "StepJournaled" {
					step = n.Sel
				}
			}
			return true
		})
		if loop.IsValid() && step != nil {
			t.Errorf("%s: %s loops (%s) over a search's %s — advance a search with Search.Drive",
				fset.Position(step.Pos()), funcName(fn), fset.Position(loop), step.Name)
		}
	}
	err := filepath.WalkDir("../..", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel("../..", path)
		if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "bench" || rel == filepath.Join("internal", "planner")) {
			return filepath.SkipDir
		}
		lintGo(t, path, stepLoops)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneHomePerDaemonState keeps the serving tables the only in-memory home
// of what the daemon persists: the persistor declares no field of map or
// *recency type, so it cannot keep a second copy of a table, with a bound
// and an eviction order of its own.
func TestOneHomePerDaemonState(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "persist.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	ast.Inspect(file, func(node ast.Node) bool {
		spec, ok := node.(*ast.TypeSpec)
		if !ok || spec.Name.Name != "persistor" {
			return true
		}
		found = true
		for _, f := range spec.Type.(*ast.StructType).Fields.List {
			typ := f.Type
			if arr, ok := typ.(*ast.ArrayType); ok {
				typ = arr.Elt
			}
			_, isMap := typ.(*ast.MapType)
			isRecency := false
			if star, ok := typ.(*ast.StarExpr); ok {
				x := star.X
				if ix, ok := x.(*ast.IndexExpr); ok {
					x = ix.X
				}
				id, ok := x.(*ast.Ident)
				isRecency = ok && id.Name == "recency"
			}
			if isMap || isRecency {
				t.Errorf("%s: the persistor declares %v, a second home for daemon state: keep it in the serving tables",
					fset.Position(f.Pos()), f.Names)
			}
		}
		return false
	})
	if !found {
		t.Fatal("persist.go declares no persistor type")
	}
}

// lintGo parses dir's non-test Go files and calls f on every function
// declaration, with the file's import names mapped to their paths.
func lintGo(t *testing.T, dir string, f func(*token.FileSet, map[string]string, *ast.FuncDecl)) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		imports := map[string]string{}
		for _, imp := range file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := filepath.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				f(fset, imports, fn)
			}
		}
	}
}

// funcName renders a function declaration's name, with its receiver type.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}
