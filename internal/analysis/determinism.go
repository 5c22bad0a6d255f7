package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeterministicPackages are the import-path suffixes of the packages whose
// results must be bit-identical run over run: the event kernel, scheduler,
// serving engine, fleet, workload generators, experiments, design layer and
// statistics. Everything they compute feeds a golden file or a conservation
// invariant.
var DeterministicPackages = []string{
	"/internal/sim",
	"/internal/sched",
	"/internal/serving",
	"/internal/kv",
	"/internal/faults",
	"/internal/cluster",
	"/internal/workload",
	"/internal/experiments",
	"/internal/design",
	"/internal/stats",
}

// BlessedGoroutineFuncs maps the import-path suffix of a deterministic
// package to the one function in it allowed to launch goroutines: the
// order-restoring sweep runner of internal/experiments only. Everything else
// must go through it; a function of the same name in any other package —
// the fleet driver's internal/cluster above all — gets no blessing.
var BlessedGoroutineFuncs = map[string]string{"/internal/experiments": "parallelMap"}

// allowedRandFuncs are the math/rand package-level functions that do not
// touch the global, non-deterministically-seeded stream.
var allowedRandFuncs = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true}

// NewDeterminism returns the determinism analyzer, restricted to packages
// accepted by appliesTo (nil means DeterministicPackages).
func NewDeterminism(appliesTo func(string) bool) *Analyzer {
	if appliesTo == nil {
		appliesTo = func(path string) bool { return hasAnySuffix(path, DeterministicPackages) }
	}
	return &Analyzer{
		Name: "determinism",
		Doc: "forbid wall-clock reads, the global math/rand stream, goroutines outside the " +
			"blessed internal/experiments parallelMap runner, and order-sensitive map iteration in the deterministic " +
			"simulation packages; waive map ranges with //papivet:ordered — justification",
		AppliesTo: appliesTo,
		Run:       runDeterminism,
	}
}

func hasAnySuffix(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if strings.HasSuffix(path, s) {
			return true
		}
	}
	return false
}

func runDeterminism(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkDeterminismFunc(pass, fn)
		}
	}
	return nil
}

func checkDeterminismFunc(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if !blessedGoroutineFunc(pass.Pkg.Path(), fn.Name.Name) {
				pass.Reportf(n.Pos(), "goroutine",
					"goroutine launched outside the blessed parallelMap runner of internal/experiments; deterministic packages must funnel concurrency through it")
			}
		case *ast.CallExpr:
			checkForbiddenCall(pass, n)
		case *ast.RangeStmt:
			checkMapRange(pass, fn, n)
		}
		return true
	})
}

// blessedGoroutineFunc reports whether the function named fn in the package
// at path may launch goroutines (see BlessedGoroutineFuncs).
func blessedGoroutineFunc(path, fn string) bool {
	for suffix, name := range BlessedGoroutineFuncs {
		if name == fn && strings.HasSuffix(path, suffix) {
			return true
		}
	}
	return false
}

// checkForbiddenCall flags wall-clock reads and global math/rand draws.
func checkForbiddenCall(pass *Pass, call *ast.CallExpr) {
	pkg, name := calleePkgFunc(pass, call)
	switch pkg {
	case "time":
		if name == "Now" || name == "Since" {
			pass.Reportf(call.Pos(), "wallclock",
				"time.%s reads the wall clock; deterministic packages must use the simulated clock", name)
		}
	case "math/rand", "math/rand/v2":
		if !allowedRandFuncs[name] {
			pass.Reportf(call.Pos(), "globalrand",
				"rand.%s draws from the global stream; use a seeded rand.New(rand.NewSource(seed))", name)
		}
	}
}

// calleePkgFunc resolves a call to (package path, function name) when the
// callee is a package-level function selected off an import; otherwise both
// returns are empty.
func calleePkgFunc(pass *Pass, call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	if _, ok := pass.TypesInfo.Uses[ident].(*types.PkgName); !ok {
		return "", ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}

// checkMapRange flags ranges over maps whose body is order-sensitive:
// appends to outer state, floating-point or string accumulation, channel
// sends, or emission (prints and Write* calls). The sorted-keys idiom — a
// body that only collects keys into a slice that is sorted after the loop —
// is recognized and allowed.
func checkMapRange(pass *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if reason := mapRangeSensitivity(pass, fn, rng); reason != "" {
		pass.Report(Diagnostic{
			Pos:      pass.Fset.Position(rng.Pos()),
			Category: "maprange",
			Message: "map iteration order is randomized but the loop body is order-sensitive (" + reason +
				"); range over sorted keys, or waive with //papivet:ordered — justification",
		})
	}
}

// mapRangeSensitivity returns a description of the first order-sensitive
// operation in the loop body, or "" if none.
func mapRangeSensitivity(pass *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt) string {
	var reason string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			reason = "channel send"
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range n.Lhs {
					if declaredOutside(pass, lhs, rng) && orderSensitiveAccumulation(pass, lhs) {
						reason = "order-dependent accumulation into outer state"
					}
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 {
				if declaredOutside(pass, n.Args[0], rng) && !isSortedKeyCollection(pass, fn, rng, n) {
					reason = "append to outer slice"
				}
			}
			if emitsOutput(pass, n) {
				reason = "output emitted per element"
			}
		}
		return true
	})
	return reason
}

// declaredOutside reports whether the root identifier of expr was declared
// outside the range statement (so per-iteration effects on it outlive the
// loop in iteration order).
func declaredOutside(pass *Pass, expr ast.Expr, rng *ast.RangeStmt) bool {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.ObjectOf(e)
			if obj == nil {
				return false
			}
			return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			// Unrecognized roots (calls, literals) are treated as outer:
			// better a waivable false positive than a silent miss.
			return true
		}
	}
}

// orderSensitiveAccumulation reports whether compound assignment to expr is
// order-dependent: floating-point addition is non-associative and string
// concatenation is non-commutative, while integer accumulation is exact.
func orderSensitiveAccumulation(pass *Pass, expr ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(expr)
	if t == nil {
		return true
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return true
	}
	return b.Info()&(types.IsFloat|types.IsComplex|types.IsString) != 0
}

// isSortedKeyCollection recognizes `keys = append(keys, k)` bodies whose
// target slice is passed to a sort.* or slices.* call after the loop.
func isSortedKeyCollection(pass *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt, call *ast.CallExpr) bool {
	if len(call.Args) != 2 {
		return false
	}
	key, ok := rng.Key.(*ast.Ident)
	if !ok {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	if !ok || pass.TypesInfo.ObjectOf(arg) != pass.TypesInfo.ObjectOf(key) {
		return false
	}
	target, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return false
	}
	targetObj := pass.TypesInfo.ObjectOf(target)
	sorted := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok || c.Pos() < rng.End() {
			return true
		}
		if pkg, _ := calleePkgFunc(pass, c); pkg == "sort" || pkg == "slices" {
			for _, a := range c.Args {
				if id, ok := a.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == targetObj {
					sorted = true
				}
			}
		}
		return true
	})
	return sorted
}

// emitsOutput reports whether the call writes somewhere a reader can see
// ordering: the fmt print family or any Write*/print method.
func emitsOutput(pass *Pass, call *ast.CallExpr) bool {
	if pkg, name := calleePkgFunc(pass, call); pkg == "fmt" && strings.Contains(name, "rint") {
		return true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name := sel.Sel.Name
	return strings.HasPrefix(name, "Write") || strings.HasPrefix(name, "Print")
}
