package fabric

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestDirtyCoversEveryMutator keeps the speaker's dirty bit honest at the
// source level. A capture repeats the checkpoint record of every speaker that
// does not report Dirty (ExportShared), so a method that writes checkpointed
// state without passing through Touch yields a stale record, silently — the
// byte oracle (TestCaptureFromMatchesFullCapture) only sees it if some test
// happens to call that method alone. So, over the *Speaker methods of
// non-test internal/bgp:
//
//   - a method is read-only only if it is named below, and then it may
//     assign to no field of the speaker but derived ones, call no writer of
//     the FIB, touch the RPA evaluator only to read its program and cache
//     state, write to no prefixState, and call only other read-only methods;
//   - every other exported method must reach Touch: call it, or call an
//     exported method that does;
//   - every other unexported method is a writer's helper: it must be called,
//     and only from methods that reach Touch or from other such helpers.
//
// A new mutator therefore fails until it calls Touch, and a new accessor
// until someone has looked at it and added it to the list. The same walk
// holds the owners to their half of the contract: outside internal/bgp, a
// function that writes a FIB it obtained through Speaker.FIB() calls
// Speaker.Touch.
//
// A restored speaker builds its maps out of its checkpoint record only when
// first used (load), so the walk also holds the laziness: read-only methods
// may call load, which is checked by lazyLoadLint instead, for the speaker
// and for the FIB table alike.
func TestDirtyCoversEveryMutator(t *testing.T) {
	readOnly := map[string]bool{
		// Accessors.
		"ID": true, "FIB": true, "Stats": true, "RPAConfig": true, "Program": true,
		"Peers": true, "Drained": true, "Candidates": true, "Baseline": true, "Decision": true,
		"AdjRIBOut": true, "AdvertiseMode": true, "IncrementalStats": true, "FullRecompute": true,
		"ExportState": true, "Dirty": true,
		// Wiring and derived state a checkpoint does not carry.
		"SetTap": true, "TakeOutbox": true, "RecycleOutbox": true, "SetFullRecompute": true, "MarkClean": true,
		// Helpers of the above and of the decision process that only read.
		"sessionOrder": true, "gather": true, "knownPrefixes": true, "peerCapacity": true,
		"distinctDevicesOf": true, "emitAdjIn": true, "emitRPAHit": true, "routeAttrs": true,
	}
	// The load helper and what it calls: they write the captured maps, but
	// only out of the record the speaker was restored from, so ExportState
	// reads the same before and after (lazyLoadLint holds that line).
	loadHelpers := map[string]bool{"load": true, "build": true}
	// Speaker fields a checkpoint carries; the rest is wiring, scratch and memo.
	captured := map[string]bool{
		"cfg": true, "peers": true, "originated": true, "prefixes": true,
		"rpa": true, "fibTbl": true, "stats": true, "drained": true,
	}
	fibWriters := map[string]bool{"Install": true, "Remove": true, "MarkWarm": true, "Touch": true, "ResetStats": true}
	columnWriters := map[string]bool{"setCandidate": true, "dropCandidate": true, "dropAdv": true, "putEntry": true, "owned": true}

	fset := token.NewFileSet()
	methods := map[string]*ast.FuncDecl{}
	paths, err := filepath.Glob("../bgp/*.go")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no internal/bgp sources (err %v)", err)
	}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil && recvType(fn.Recv.List[0].Type) == "*Speaker" {
				methods[fn.Name.Name] = fn
			}
		}
	}
	if methods["Touch"] == nil || methods["HandleUpdate"] == nil {
		t.Fatal("internal/bgp has no Speaker.Touch or Speaker.HandleUpdate: the lint is looking at the wrong tree")
	}

	// calls[m] lists the Speaker methods m calls on its receiver; callers is
	// the inverse.
	calls, callers := map[string][]string{}, map[string][]string{}
	for name, fn := range methods {
		recv := fn.Recv.List[0].Names[0].Name
		ast.Inspect(fn.Body, func(node ast.Node) bool {
			if call, ok := node.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv && methods[sel.Sel.Name] != nil {
						calls[name] = append(calls[name], sel.Sel.Name)
						callers[sel.Sel.Name] = append(callers[sel.Sel.Name], name)
					}
				}
			}
			return true
		})
	}
	calledBy := func(m, callee string) bool {
		for _, c := range calls[m] {
			if c == callee {
				return true
			}
		}
		return false
	}
	// reaches: the exported methods that call Touch or an exported method
	// that does.
	reaches := map[string]bool{"Touch": true}
	for grew := true; grew; {
		grew = false
		for name := range methods {
			if reaches[name] || !ast.IsExported(name) {
				continue
			}
			for _, c := range calls[name] {
				if reaches[c] && ast.IsExported(c) {
					reaches[name], grew = true, true
				}
			}
		}
	}
	// helper: unexported, not read-only, and every caller reaches Touch or
	// is such a helper itself.
	helper := map[string]bool{}
	for name := range methods {
		helper[name] = !ast.IsExported(name) && !readOnly[name] && !loadHelpers[name] && len(callers[name]) > 0
	}
	for shrank := true; shrank; {
		shrank = false
		for name, ok := range helper {
			if !ok {
				continue
			}
			for _, c := range callers[name] {
				if !reaches[c] && !helper[c] {
					helper[name], shrank = false, true
				}
			}
		}
	}

	names := make([]string, 0, len(methods))
	for name := range methods {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fn := methods[name]
		pos := fset.Position(fn.Pos())
		switch {
		case loadHelpers[name]:
			// lazyLoadLint.
		case readOnly[name]:
			recv := fn.Recv.List[0].Names[0].Name
			for _, c := range calls[name] {
				if !readOnly[c] && !loadHelpers[c] {
					t.Errorf("%s: %s is listed read-only but calls %s, which is not", pos, name, c)
				}
			}
			ast.Inspect(fn.Body, func(node ast.Node) bool {
				var targets []ast.Expr
				switch n := node.(type) {
				case *ast.AssignStmt:
					targets = n.Lhs
				case *ast.IncDecStmt:
					targets = []ast.Expr{n.X}
				case *ast.CallExpr:
					switch fun := n.Fun.(type) {
					case *ast.Ident:
						if fun.Name == "delete" || fun.Name == "clear" {
							targets = n.Args[:1]
						}
						if columnWriters[fun.Name] {
							t.Errorf("%s: read-only %s calls the column writer %s", fset.Position(n.Pos()), name, fun.Name)
						}
					case *ast.SelectorExpr:
						// on is the speaker field the method is called on
						// directly (s.rpa.X()), onCache that it is called on
						// s.rpa.Cache().
						on, onCache := "", false
						switch x := fun.X.(type) {
						case *ast.SelectorExpr:
							if id, ok := x.X.(*ast.Ident); ok && id.Name == recv {
								on = x.Sel.Name
							}
						case *ast.CallExpr:
							if inner, ok := x.Fun.(*ast.SelectorExpr); ok && inner.Sel.Name == "Cache" {
								onCache = speakerField(inner.X, recv) == "rpa"
							}
						}
						switch {
						case columnWriters[fun.Sel.Name]:
							t.Errorf("%s: read-only %s calls the column writer %s", fset.Position(n.Pos()), name, fun.Sel.Name)
						case on == "fibTbl" && fibWriters[fun.Sel.Name]:
							t.Errorf("%s: read-only %s writes the FIB (%s)", fset.Position(n.Pos()), name, fun.Sel.Name)
						case on == "rpa" && fun.Sel.Name != "Program" && fun.Sel.Name != "Cache":
							t.Errorf("%s: read-only %s evaluates the RPA (%s), which writes its match cache", fset.Position(n.Pos()), name, fun.Sel.Name)
						case onCache && fun.Sel.Name != "ExportState":
							t.Errorf("%s: read-only %s calls %s on the RPA evaluator's cache", fset.Position(n.Pos()), name, fun.Sel.Name)
						}
					}
				}
				for _, target := range targets {
					if field := speakerField(target, recv); captured[field] {
						t.Errorf("%s: read-only %s writes the checkpointed field %s", fset.Position(target.Pos()), name, field)
					}
				}
				return true
			})
		case ast.IsExported(name):
			if !reaches[name] {
				t.Errorf("%s: exported Speaker.%s neither reaches Touch nor is listed read-only: a capture would repeat a stale record after it", pos, name)
			}
		default:
			if !helper[name] {
				t.Errorf("%s: Speaker.%s is neither listed read-only nor called only from methods that reach Touch (callers: %v)", pos, name, callers[name])
			}
		}
	}
	for name := range readOnly {
		if methods[name] == nil {
			t.Errorf("read-only list names Speaker.%s, which does not exist", name)
		}
	}
	if !calledBy("SetRPA", "SetProgram") || !reaches["SetRPA"] || !helper["recomputeOne"] || !helper["advertise"] {
		t.Error("the walk no longer sees SetRPA reach Touch through SetProgram, or the decision process as a helper of touching methods")
	}

	lazyLoadLint(t, fset, methods, lazyLint{
		lazy:    map[string]bool{"peers": true, "originated": true, "prefixes": true, "rpa": true, "sessOrder": true},
		loaders: map[string]bool{"load": true, "Touch": true},
		helpers: loadHelpers,
		record:  map[string]bool{"load": true, "build": true, "pending": true},
		serves:  map[string]bool{"Program": true},
	})
	fibMethods := map[string]*ast.FuncDecl{}
	fibPaths, err := filepath.Glob("../fib/*.go")
	if err != nil || len(fibPaths) == 0 {
		t.Fatalf("no internal/fib sources (err %v)", err)
	}
	for _, path := range fibPaths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil && recvType(fn.Recv.List[0].Type) == "*Table" {
				fibMethods[fn.Name.Name] = fn
			}
		}
	}
	lazyLoadLint(t, fset, fibMethods, lazyLint{
		lazy:    map[string]bool{"entries": true, "groups": true, "warmEntries": true},
		loaders: map[string]bool{"load": true},
		helpers: map[string]bool{"load": true},
		// renderKey only writes its own scratch.
		record: map[string]bool{"pending": true, "renderKey": true},
		serves: map[string]bool{"Lookup": true, "LookupLPM": true, "IsWarm": true},
	})

	// The owners: whoever writes a FIB obtained through Speaker.FIB().
	for _, root := range []string{"..", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			if pkg := filepath.Base(filepath.Dir(path)); root == ".." && (pkg == "bgp" || pkg == "fib") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatalf("parse %s: %v", path, err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				var takesFIB, touches bool
				var write token.Pos
				ast.Inspect(fn.Body, func(node ast.Node) bool {
					call, ok := node.(*ast.CallExpr)
					if !ok {
						return true
					}
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						switch {
						case sel.Sel.Name == "FIB" && len(call.Args) == 0:
							takesFIB = true
						case sel.Sel.Name == "Touch" && len(call.Args) == 0:
							touches = true
						case fibWriters[sel.Sel.Name] && sel.Sel.Name != "Touch" || sel.Sel.Name == "Touch" && len(call.Args) == 1:
							write = call.Pos()
						}
					}
					return true
				})
				if takesFIB && write.IsValid() && !touches {
					t.Errorf("%s: %s writes a FIB it took from a speaker and does not call Speaker.Touch", fset.Position(write), fn.Name.Name)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("walk %s: %v", root, err)
		}
	}
}

// speakerField resolves an expression rooted at the receiver to the speaker
// field it names: s.stats.Recomputes, s.peers[k] and s.rpa.Cache() all name
// their first selector.
func speakerField(e ast.Expr, recv string) string {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && id.Name == recv {
				return x.Sel.Name
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return ""
		}
	}
}

// lazyLint names, for one type restored lazily from a checkpoint record, the
// fields built out of the record, the methods that build them, and the
// methods allowed to answer from the record instead.
type lazyLint struct {
	lazy    map[string]bool // fields built from the record on first use
	loaders map[string]bool // calling one of these builds them
	helpers map[string]bool // the load helper and what it calls
	// record is what the load helpers may name of the receiver besides the
	// lazy fields they write: the pending record they read, each other.
	record map[string]bool
	// serves are the methods that answer from the pending record while there
	// is one, and so read the lazy fields only after testing it.
	serves map[string]bool
}

// lazyLoadLint: every method that names a lazily built field either calls a
// loader (or a method that does) before it first names one, tests the pending
// record first (only the methods listed as serving from it), or is an
// unexported method reached only through calls made after such a loader call.
// And the load helpers name nothing of the receiver but the lazy fields they
// write, the record they read them from, and each other: building late
// builds what restoring would have.
func lazyLoadLint(t *testing.T, fset *token.FileSet, methods map[string]*ast.FuncDecl, l lazyLint) {
	t.Helper()
	// first[m] is the position of m's first naming of a lazy field (NoPos:
	// none), pending[m] of its first naming of the record; calls[m] lists m's
	// calls on the receiver with their positions.
	type call struct {
		name string
		pos  token.Pos
	}
	first, pending := map[string]token.Pos{}, map[string]token.Pos{}
	calls := map[string][]call{}
	for name, fn := range methods {
		if len(fn.Recv.List[0].Names) == 0 {
			continue
		}
		recv := fn.Recv.List[0].Names[0].Name
		ast.Inspect(fn.Body, func(node ast.Node) bool {
			sel, ok := node.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || id.Name != recv {
				return true
			}
			field := sel.Sel.Name
			if l.helpers[name] && !l.lazy[field] && !l.record[field] {
				t.Errorf("%s: load helper %s names %s.%s: it may build only from the pending record", fset.Position(sel.Pos()), name, recv, field)
			}
			switch {
			case l.lazy[field]:
				if !first[name].IsValid() || sel.Pos() < first[name] {
					first[name] = sel.Pos()
				}
			case field == "pending":
				if !pending[name].IsValid() || sel.Pos() < pending[name] {
					pending[name] = sel.Pos()
				}
			case methods[field] != nil:
				calls[name] = append(calls[name], call{field, sel.Pos()})
			}
			return true
		})
	}
	// loadsAt[m]: the position of m's first call to a loader or to a method
	// that loads before it names a lazy field; m is in it only if it is such
	// a method itself. The set only grows, so the walk ends.
	loadsAt := map[string]token.Pos{}
	for grew := true; grew; {
		grew = false
		for name := range methods {
			if _, ok := loadsAt[name]; ok {
				continue
			}
			var at token.Pos
			for _, c := range calls[name] {
				if _, ok := loadsAt[c.name]; (l.loaders[c.name] || ok) && (!at.IsValid() || c.pos < at) {
					at = c.pos
				}
			}
			if at.IsValid() && (!first[name].IsValid() || at < first[name]) {
				loadsAt[name], grew = at, true
			}
		}
	}
	loadedBefore := func(m string, pos token.Pos) bool {
		at, ok := loadsAt[m]
		return ok && at < pos
	}
	// reached: unexported methods whose every call comes after the caller
	// loaded, or from another such method.
	reached := map[string]bool{}
	for name := range methods {
		reached[name] = !ast.IsExported(name) && !l.helpers[name]
	}
	for shrank := true; shrank; {
		shrank = false
		for name, ok := range reached {
			if !ok {
				continue
			}
			called := false
			for caller, cs := range calls {
				for _, c := range cs {
					if c.name != name {
						continue
					}
					called = true
					if !loadedBefore(caller, c.pos) && !reached[caller] {
						reached[name], shrank = false, true
					}
				}
			}
			if !called {
				reached[name], shrank = false, true
			}
		}
	}
	for name, fn := range methods {
		f := first[name]
		switch {
		case !f.IsValid() || l.helpers[name] || l.loaders[name]:
		case l.serves[name]:
			if p := pending[name]; !p.IsValid() || p > f {
				t.Errorf("%s: %s is listed as serving from the pending record but names a lazy field before testing it", fset.Position(f), name)
			}
		case loadedBefore(name, f):
		case reached[name]:
		default:
			t.Errorf("%s: %s names a lazily built field without loading it first, and is not reached only through methods that have (%s)", fset.Position(f), name, fset.Position(fn.Pos()))
		}
	}
	for name := range l.serves {
		if methods[name] == nil {
			t.Errorf("lazy lint lists %s as serving from the pending record, and it does not exist", name)
		}
	}
	for name := range l.helpers {
		if methods[name] == nil {
			t.Errorf("lazy lint lists %s as a load helper, and it does not exist", name)
		}
	}
}
