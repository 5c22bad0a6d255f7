package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// UnitSafePackages are the import-path suffixes where internal/units
// quantities must stay typed: the consumers of the roofline algebra. The
// device-physics packages (gpu, pim, hbm, dram, interconnect, model,
// energy) implement the algebra itself — dimension crossing is their job —
// and units is the defining package; all are deliberately outside this set,
// as docs/ANALYSIS.md records.
var UnitSafePackages = []string{
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
	"github.com/papi-sim/papi",
}

// IsUnitsPackage reports whether path is (an analogue of) internal/units.
// The bare "units" spelling is how analysistest fixtures import their fake.
func IsUnitsPackage(path string) bool {
	return path == "units" || strings.HasSuffix(path, "/internal/units")
}

// NewUnitSafety returns the unit-safety analyzer. appliesTo nil means
// UnitSafePackages.
func NewUnitSafety(appliesTo func(string) bool) *Analyzer {
	if appliesTo == nil {
		appliesTo = func(path string) bool {
			for _, s := range UnitSafePackages {
				if path == s || strings.HasSuffix(path, s) {
					return true
				}
			}
			return false
		}
	}
	return &Analyzer{
		Name: "unitsafety",
		Doc: "forbid laundering internal/units quantities (Seconds, Joules, Bytes, FLOPs, Watts, ...) " +
			"through raw numeric conversions: dimension changes must go through typed units helpers " +
			"(accessors, Scale, Ratio, Power, Energy) or carry a //papivet:allow unitsafety waiver",
		AppliesTo: appliesTo,
		Run:       runUnitSafety,
	}
}

func runUnitSafety(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			// A conversion is a "call" whose operator is a type.
			tv, ok := pass.TypesInfo.Types[call.Fun]
			if !ok || !tv.IsType() {
				return true
			}
			src := pass.TypesInfo.TypeOf(call.Args[0])
			if src == nil {
				return true
			}
			dst := tv.Type
			srcUnit, srcIsUnit := unitsTypeName(src)
			dstUnit, dstIsUnit := unitsTypeName(dst)
			switch {
			case srcIsUnit && !dstIsUnit && isNumeric(dst):
				pass.Reportf(call.Pos(), "launder",
					"conversion %s(%s) drops the %s dimension; use a typed units helper (accessor, Scale, Ratio) or waive with //papivet:allow unitsafety — why",
					types.TypeString(dst, nil), exprString(call.Args[0]), srcUnit)
			case srcIsUnit && dstIsUnit && srcUnit != dstUnit:
				pass.Reportf(call.Pos(), "crossunit",
					"conversion casts %s directly to %s; dimensions may only change through a units operation (Power, Energy, Time, ...)",
					srcUnit, dstUnit)
			}
			return true
		})
	}
	return nil
}

// unitsTypeName returns the units type's name when t is a named type
// declared in internal/units (or a fixture analogue).
func unitsTypeName(t types.Type) (string, bool) {
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !IsUnitsPackage(obj.Pkg().Path()) {
		return "", false
	}
	return obj.Name(), true
}

// isNumeric reports whether t is a raw numeric type (the laundering target).
func isNumeric(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsFloat|types.IsComplex) != 0
}

// exprString renders small expressions for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	default:
		return "expr"
	}
}
