package fabric

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

// TestDeterminismLint enforces the substrate's central contract at the
// source level: the simulation core (fabric engine, BGP speakers, FIB)
// and everything that must replay byte-identically on top of it (the
// controller's rollout sequencing, the migration scenarios, the campaign
// planner) must never read the wall clock or draw from the global RNG,
// because checkpoints restored into byte-identical continuation
// (internal/snapshot) and the planner's worker-count-independence
// contract depend on every nondeterministic input flowing through a
// seeded, local source. A new time.Now() or global math/rand call
// anywhere in these packages fails this test before it can fail the
// differential suites. Constructing seeded local generators
// (rand.New(rand.NewSource(seed))) is fine; drawing from the package
// source (rand.Intn, rand.Shuffle, ...) is not.
//
// The simulation core proper (fabric, bgp, fib) additionally runs on one
// event loop: a `go` statement there is an error, because a second
// goroutine touching speaker or engine state is a second engine to keep
// byte-identical. And the fabric package may not read the environment: an
// init-time os.Getenv changes the engine under every test without entering
// Go's test cache key. (bgp's CENTRALIUM_FULL_RECOMPUTE read pins the
// reference oracle and stays.)
func TestDeterminismLint(t *testing.T) {
	// Allowed files: the counted engine RNG is the one sanctioned
	// unrestricted math/rand consumer.
	randAllowed := map[string]bool{"rng.go": true}
	// oneLoop marks the packages where goroutines are banned; the planner's
	// candidate-evaluation pool is a different mechanism and stays.
	// The probe's hook runs inside that loop, so it is held to the same rule.
	oneLoop := map[string]bool{".": true, "../bgp": true, "../fib": true, "../probe": true}

	for _, dir := range []string{".", "../bgp", "../fib", "../probe", "../planner", "../migrate", "../controller"} {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			lintFile(t, path, randAllowed[filepath.Base(path)], oneLoop[dir], dir == ".")
			return nil
		})
		if err != nil {
			t.Fatalf("walk %s: %v", dir, err)
		}
	}
}

// seededLocalOK lists the math/rand selectors that build or type seeded
// local generators — the sanctioned pattern. Everything else on the rand
// package identifier (Intn, Shuffle, Perm, Seed, ...) reads or mutates
// the global source and is flagged.
var seededLocalOK = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"Rand": true, "Source": true, "NewPCG": true, "NewChaCha8": true,
}

// lintFile flags time.Now calls and, unless allowed, global math/rand use
// in one source file; with oneLoop also `go` statements, and with noEnv
// os.Getenv. Detection is AST-based (selector expressions against the
// actual package imports), so comments and strings never false-match.
func lintFile(t *testing.T, path string, randOK, oneLoop, noEnv bool) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}

	// Map local import names to flagged packages.
	timeNames := map[string]bool{}
	randNames := map[string]bool{}
	osNames := map[string]bool{}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := filepath.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		switch p {
		case "time":
			timeNames[name] = true
		case "math/rand", "math/rand/v2":
			randNames[name] = true
		case "os":
			osNames[name] = true
		}
	}

	ast.Inspect(f, func(node ast.Node) bool {
		if g, ok := node.(*ast.GoStmt); ok && oneLoop {
			t.Errorf("%s: go statement in the simulation core — the engine is one event loop", fset.Position(g.Pos()))
		}
		sel, ok := node.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pos := fset.Position(sel.Pos())
		if timeNames[id.Name] && sel.Sel.Name == "Now" {
			t.Errorf("%s: time.Now() in the deterministic core — use the virtual clock (Network.Now)", pos)
		}
		if noEnv && osNames[id.Name] && sel.Sel.Name == "Getenv" {
			t.Errorf("%s: os.Getenv in internal/fabric — engine behaviour must not depend on the environment", pos)
		}
		if randNames[id.Name] && !randOK && !seededLocalOK[sel.Sel.Name] {
			t.Errorf("%s: global math/rand (%s.%s) in the deterministic core — draw from a seeded local source", pos, id.Name, sel.Sel.Name)
		}
		return true
	})
}

// TestOneProbeLint keeps transient measurement in one place. Outside
// internal/probe no non-test file under internal/ or cmd/ may both register
// an after-event hook (a .OnEvent( call) and name traffic.Propagator — that
// pair is a hand-rolled per-event sampler, and every one of those samples
// under its own policy. And the planner and guard may not build a
// telemetry.Collector: a fleet aggregation point per fork buys a mutex and
// a per-device event ring nothing reads, to run four detectors the probe
// runs directly.
func TestOneProbeLint(t *testing.T) {
	for _, root := range []string{"..", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			pkg := filepath.Base(filepath.Dir(path))
			if root == ".." && pkg == "probe" {
				return nil
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatalf("parse %s: %v", path, err)
			}
			names := map[string]string{} // local import name -> path
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				name := filepath.Base(p)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				names[name] = p
			}
			var hook, propagator token.Pos
			ast.Inspect(f, func(node ast.Node) bool {
				if call, ok := node.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "OnEvent" {
						hook = call.Pos()
					}
				}
				sel, ok := node.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				switch {
				case names[id.Name] == "centralium/internal/traffic" && sel.Sel.Name == "Propagator":
					propagator = sel.Pos()
				case names[id.Name] == "centralium/internal/telemetry" && sel.Sel.Name == "NewCollector" &&
					root == ".." && (pkg == "planner" || pkg == "guard"):
					t.Errorf("%s: telemetry.NewCollector in %s — measure through internal/probe", fset.Position(sel.Pos()), pkg)
				}
				return true
			})
			if hook.IsValid() && propagator.IsValid() {
				t.Errorf("%s: after-event hook next to a traffic.Propagator (%s) — a hand-rolled sampler; use probe.Attach",
					fset.Position(hook), fset.Position(propagator))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("walk %s: %v", root, err)
		}
	}
}

// TestOneDecisionDriver keeps the full-recompute mode where it belongs. The
// decision process has one driver (recomputeAll over recomputeOne); the mode
// decides a single thing — whether the advertise memo may be trusted — so in
// non-test internal/bgp the speaker's fullRecompute field may be named only
// by memoCurrent (once: the one mode-dependent test), its accessors
// SetFullRecompute and FullRecompute, and the constructor; and the two
// places that trust the memo, advertise and the dominated-change skip
// (dominated), must ask memoCurrent. A second engine starts with an
// `if s.fullRecompute` somewhere else; this fails it before the differential
// suites have two paths to keep byte-identical.
func TestOneDecisionDriver(t *testing.T) {
	allowed := map[string]bool{"memoCurrent": true, "SetFullRecompute": true, "FullRecompute": true, "newSpeaker": true}
	inMemoCurrent := 0
	asks := map[string]bool{}
	paths, err := filepath.Glob("../bgp/*.go")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no internal/bgp sources (err %v)", err)
	}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(node ast.Node) bool {
				var name *ast.Ident
				switch n := node.(type) {
				case *ast.SelectorExpr:
					name = n.Sel
				case *ast.KeyValueExpr: // a Speaker literal's field key
					name, _ = n.Key.(*ast.Ident)
				}
				if name != nil && name.Name == "memoCurrent" {
					asks[fn.Name.Name] = true
				}
				if name == nil || name.Name != "fullRecompute" {
					return true
				}
				switch {
				case !allowed[fn.Name.Name]:
					t.Errorf("%s: %s reads the full-recompute mode — only memoCurrent may test it",
						fset.Position(name.Pos()), fn.Name.Name)
				case fn.Name.Name == "memoCurrent":
					inMemoCurrent++
				}
				return true
			})
		}
	}
	if inMemoCurrent != 1 {
		t.Errorf("memoCurrent names fullRecompute %d times, want exactly 1 (the one mode-dependent test)", inMemoCurrent)
	}
	for _, fn := range []string{"advertise", "dominated"} {
		if !asks[fn] {
			t.Errorf("%s trusts the advertise memo without asking memoCurrent", fn)
		}
	}
}

// TestOneRPACompile keeps an RPA config's compile in one place. In non-test
// internal/ and cmd/ only internal/core may compile a regex; inside core,
// compileSignature and compileFilter are called from Compile and from
// nowhere else (a second caller is a second walker of a config's statements,
// whose checks and error strings then drift from the first's); core.Config
// has no Clone method (a config is shared by pointer and never edited, so
// there is nothing a deep copy protects); and internal/bgp does not import
// encoding/json (a speaker hands its program over by pointer, it neither
// renders nor parses its config).
func TestOneRPACompile(t *testing.T) {
	callers := map[string]map[string]bool{"compileSignature": {}, "compileFilter": {}}
	for _, root := range []string{"..", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			pkg := filepath.Base(filepath.Dir(path))
			inCore, inBGP := root == ".." && pkg == "core", root == ".." && pkg == "bgp"
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatalf("parse %s: %v", path, err)
			}
			regexpName := ""
			for _, imp := range f.Imports {
				switch p, _ := strconv.Unquote(imp.Path.Value); {
				case p == "regexp":
					if regexpName = "regexp"; imp.Name != nil {
						regexpName = imp.Name.Name
					}
				case p == "encoding/json" && inBGP:
					t.Errorf("%s: internal/bgp imports encoding/json — a speaker shares its *core.Program, it does not render or parse its config", fset.Position(imp.Pos()))
				}
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if inCore && fn.Name.Name == "Clone" && fn.Recv != nil && strings.TrimPrefix(recvType(fn.Recv.List[0].Type), "*") == "Config" {
					t.Errorf("%s: Clone declared on core.Config — configs are immutable and shared by pointer", fset.Position(fn.Pos()))
				}
				ast.Inspect(fn, func(node ast.Node) bool {
					call, ok := node.(*ast.CallExpr)
					if !ok {
						return true
					}
					switch fun := call.Fun.(type) {
					case *ast.Ident:
						if inCore && callers[fun.Name] != nil {
							callers[fun.Name][fn.Name.Name] = true
						}
					case *ast.SelectorExpr:
						if id, ok := fun.X.(*ast.Ident); ok && regexpName != "" && id.Name == regexpName && !inCore &&
							(fun.Sel.Name == "Compile" || fun.Sel.Name == "MustCompile") {
							t.Errorf("%s: regexp.%s outside internal/core — RPA regexes compile in core.Compile only", fset.Position(call.Pos()), fun.Sel.Name)
						}
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatalf("walk %s: %v", root, err)
		}
	}
	for callee, from := range callers {
		if len(from) != 1 || !from["Compile"] {
			t.Errorf("core.%s is called from %v, want exactly {Compile}", callee, from)
		}
	}
}

// recvType renders a receiver type expression ("*Config", "Config").
func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return "*" + recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}
