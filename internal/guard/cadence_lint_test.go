package guard

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneMeasurementCadence holds the one measurement cadence at the source
// level: every device settles before the next is pushed, and the probe
// samples every change of forwarding state. It fails a thinning argument on
// probe.Attach, a cadence argument on planner.NewExecutor, and a struct that
// declares either knob again. Three declarations stay, inert: the fields
// bench/ still names (server.WhatIfRequest.SampleEvery,
// qualify.Spec.SampleEvery, planner.Params.SettlePerDevice), and
// controller.Rollout.SettlePerDevice, whose callers need both values.
func TestOneMeasurementCadence(t *testing.T) {
	allowed := map[string]map[string]bool{
		"SampleEvery":     {"internal/server.WhatIfRequest": true, "internal/qualify.Spec": true},
		"SettlePerDevice": {"internal/controller.Rollout": true, "internal/planner.Params": true},
	}
	banned := map[string]map[string]string{ // package → function → banned parameter type
		"internal/probe":   {"Attach": "int"},
		"internal/planner": {"NewExecutor": "bool"},
	}
	seen := 0
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(rel)
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		named := map[*ast.StructType]string{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					named[st] = n.Name.Name
				}
			case *ast.StructType:
				for _, field := range n.Fields.List {
					for _, name := range field.Names {
						if ok, knob := allowed[name.Name]; knob && !ok[pkg+"."+named[n]] {
							t.Errorf("%s: struct %q declares %s — there is one measurement cadence, not a knob",
								path, named[n], name.Name)
						}
					}
				}
			case *ast.FuncDecl:
				typ, ok := banned[pkg][n.Name.Name]
				if !ok || n.Recv != nil {
					return true
				}
				seen++
				for _, p := range n.Type.Params.List {
					if id, ok := p.Type.(*ast.Ident); ok && id.Name == typ {
						t.Errorf("%s: %s has a %s parameter — a cadence knob", path, n.Name.Name, typ)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 2 {
		t.Errorf("found %d of probe.Attach and planner.NewExecutor; the lint lost track of them", seen)
	}
}
