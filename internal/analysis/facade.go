package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// A LookupSpec names one registry-lookup function: calls to it with a string
// literal are checked against the registry's statically-extracted name set.
type LookupSpec struct {
	Pkg      string // defining package: "/suffix" or exact import path
	Func     string
	Arg      int    // index of the name argument
	Registry string // key into FacadeConfig.Registries
}

// A RegistrySpec says where a registry's names are defined and how to read
// them out of the AST.
type RegistrySpec struct {
	Pkg  string
	Func string
	// Kind selects the extractor: "literals" (Name:/ID: fields and
	// positional leading strings in composite literals), "calls" (same,
	// but also following calls into same-package constructors), or
	// "switch" (case-clause strings).
	Kind string
}

// FacadeConfig parameterizes the facade analyzer so its tests can run it
// over fixture modules.
type FacadeConfig struct {
	// RootPath is the facade package (papi.go's package).
	RootPath string
	// InternalPrefix is the import-path prefix of the packages the facade
	// re-exports ("<module>/internal/").
	InternalPrefix string
	Lookups        []LookupSpec
	Registries     map[string]RegistrySpec
}

// DefaultFacadeConfig is this repo's facade: papi.go over internal/, and the
// five registries its CLIs and examples resolve names against.
func DefaultFacadeConfig() FacadeConfig {
	return FacadeConfig{
		RootPath:       "github.com/papi-sim/papi",
		InternalPrefix: "github.com/papi-sim/papi/internal/",
		Lookups: []LookupSpec{
			{"/internal/experiments", "FigureByID", 0, "figures"},
			{"/internal/workload", "ScenarioByName", 0, "scenarios"},
			{"/internal/workload", "ByName", 0, "datasets"},
			{"/internal/workload", "ClassByName", 0, "classes"},
			{"/internal/cluster", "RouterByName", 0, "routers"},
			{"/internal/cluster", "NewByName", 0, "designs"},
			{"/internal/design", "ByName", 0, "designs"},
			{"/internal/model", "ByName", 0, "models"},
			{"github.com/papi-sim/papi", "SystemByName", 0, "designs"},
			{"github.com/papi-sim/papi", "DesignByName", 0, "designs"},
			{"github.com/papi-sim/papi", "NewClusterByName", 0, "designs"},
			{"github.com/papi-sim/papi", "ScenarioByName", 0, "scenarios"},
			{"github.com/papi-sim/papi", "DatasetByName", 0, "datasets"},
			{"github.com/papi-sim/papi", "ModelByName", 0, "models"},
			{"github.com/papi-sim/papi", "RouterByName", 0, "routers"},
			{"github.com/papi-sim/papi", "ClassByName", 0, "classes"},
			{"github.com/papi-sim/papi", "Simulate", 0, "designs"},
			{"github.com/papi-sim/papi", "Simulate", 1, "models"},
			{"github.com/papi-sim/papi", "Simulate", 2, "datasets"},
		},
		Registries: map[string]RegistrySpec{
			"figures":   {"/internal/experiments", "Figures", "literals"},
			"scenarios": {"/internal/workload", "Scenarios", "literals"},
			"datasets":  {"/internal/workload", "ByName", "switch"},
			"classes":   {"/internal/workload", "ClassByName", "switch"},
			"routers":   {"/internal/cluster", "RouterByName", "switch"},
			"designs":   {"/internal/design", "Registry", "calls"},
			"models":    {"/internal/model", "ByName", "calls"},
		},
	}
}

// NewFacade returns the facade analyzer: papi.go re-exports must originate
// in internal/ with matching signatures, and registry-name string literals
// anywhere in the module must resolve against the registries they index.
func NewFacade(cfg FacadeConfig) *Analyzer {
	cache := map[string]map[string]bool{}
	return &Analyzer{
		Name: "facade",
		Doc: "verify papi.go re-exports resolve to their internal/ origins with matching " +
			"signatures, and that string literals passed to registry lookups (figures, scenarios, " +
			"designs, datasets, models, routers) name registered entries",
		AppliesTo: func(path string) bool {
			return path == cfg.RootPath || strings.HasPrefix(path, cfg.RootPath+"/")
		},
		Run: func(pass *Pass) error {
			if pass.Pkg.Path() == cfg.RootPath {
				checkFacadeOrigins(pass, cfg)
			}
			return checkRegistryLiterals(pass, cfg, cache)
		},
	}
}

// --- re-export origin checks -------------------------------------------------

// checkFacadeOrigins requires every exported declaration of the facade
// package to reference at least one internal/ symbol (a pure local
// definition is facade drift: a copy that can diverge from its origin), and
// pure delegation wrappers to have signatures identical to their targets.
func checkFacadeOrigins(pass *Pass, cfg FacadeConfig) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if !decl.Name.IsExported() || decl.Recv != nil {
					continue
				}
				if !mentionsInternal(pass, decl, cfg.InternalPrefix) {
					pass.Reportf(decl.Pos(), "origin",
						"exported %s does not reference any %s package; facade symbols must re-export their internal origin",
						decl.Name.Name, cfg.InternalPrefix)
					continue
				}
				checkDelegationSignature(pass, cfg, decl)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					checkFacadeSpec(pass, cfg, spec)
				}
			}
		}
	}
}

func checkFacadeSpec(pass *Pass, cfg FacadeConfig, spec ast.Spec) {
	switch spec := spec.(type) {
	case *ast.TypeSpec:
		if !spec.Name.IsExported() {
			return
		}
		if spec.Assign == 0 {
			pass.Reportf(spec.Pos(), "origin",
				"exported type %s is defined locally; the facade may only alias internal types (type %s = internal…)",
				spec.Name.Name, spec.Name.Name)
			return
		}
		if !mentionsInternal(pass, spec.Type, cfg.InternalPrefix) {
			pass.Reportf(spec.Pos(), "origin",
				"exported alias %s does not resolve to an %s type", spec.Name.Name, cfg.InternalPrefix)
		}
	case *ast.ValueSpec:
		exported := false
		for _, n := range spec.Names {
			exported = exported || n.IsExported()
		}
		if !exported || len(spec.Values) == 0 {
			return
		}
		for _, v := range spec.Values {
			if !mentionsInternal(pass, v, cfg.InternalPrefix) {
				pass.Reportf(spec.Pos(), "origin",
					"exported value %s is not derived from an %s symbol", spec.Names[0].Name, cfg.InternalPrefix)
			}
		}
	}
}

// mentionsInternal reports whether node references any symbol whose package
// path starts with prefix.
func mentionsInternal(pass *Pass, node ast.Node, prefix string) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		if strings.HasPrefix(obj.Pkg().Path(), prefix) {
			found = true
		}
		// Aliases hide the defining package behind the facade's own path;
		// resolve the aliased type's origin too.
		if tn, ok := obj.(*types.TypeName); ok && tn.IsAlias() {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				if p := named.Obj().Pkg(); p != nil && strings.HasPrefix(p.Path(), prefix) {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// checkDelegationSignature compares a pure pass-through wrapper — a body
// that is exactly `return internal.F(p1, p2, …)` over the wrapper's own
// parameters in order — against its target's signature. Any widening,
// narrowing, or reordering that still happens to compile is drift.
func checkDelegationSignature(pass *Pass, cfg FacadeConfig, decl *ast.FuncDecl) {
	if decl.Body == nil || len(decl.Body.List) != 1 {
		return
	}
	ret, ok := decl.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return
	}
	call, ok := ret.Results[0].(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	callee, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || callee.Pkg() == nil || !strings.HasPrefix(callee.Pkg().Path(), cfg.InternalPrefix) {
		return
	}
	// Pass-through means every argument is exactly the wrapper's parameter
	// list, in order and unconverted.
	params := flattenParams(decl)
	if len(call.Args) != len(params) {
		return
	}
	for i, arg := range call.Args {
		id, ok := arg.(*ast.Ident)
		if !ok || pass.TypesInfo.ObjectOf(id) != pass.TypesInfo.ObjectOf(params[i]) {
			return
		}
	}
	wsig, ok := pass.TypesInfo.ObjectOf(decl.Name).Type().(*types.Signature)
	if !ok {
		return
	}
	csig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	if !types.Identical(wsig.Params(), csig.Params()) || !resultsCompatible(wsig.Results(), csig.Results()) {
		pass.Reportf(decl.Pos(), "signature",
			"facade wrapper %s has signature %s but its origin %s.%s has %s",
			decl.Name.Name, types.TypeString(wsig, types.RelativeTo(pass.Pkg)),
			callee.Pkg().Name(), callee.Name(), types.TypeString(csig, types.RelativeTo(pass.Pkg)))
	}
}

// resultsCompatible accepts identical result tuples, and the one deliberate
// divergence a facade makes: widening a concrete internal return type to an
// interface it implements (e.g. *workload.PoissonProcess → ArrivalProcess).
func resultsCompatible(w, c *types.Tuple) bool {
	if types.Identical(w, c) {
		return true
	}
	if w.Len() != c.Len() {
		return false
	}
	for i := 0; i < w.Len(); i++ {
		wt, ct := w.At(i).Type(), c.At(i).Type()
		if types.Identical(wt, ct) {
			continue
		}
		if types.IsInterface(wt) && types.AssignableTo(ct, wt) {
			continue
		}
		return false
	}
	return true
}

// flattenParams lists a function's parameter identifiers in order.
func flattenParams(decl *ast.FuncDecl) []*ast.Ident {
	var out []*ast.Ident
	if decl.Type.Params == nil {
		return out
	}
	for _, f := range decl.Type.Params.List {
		out = append(out, f.Names...)
	}
	return out
}

// --- registry literal checks -------------------------------------------------

// checkRegistryLiterals verifies every constant-string argument to a known
// registry lookup against the registry's extracted name set.
func checkRegistryLiterals(pass *Pass, cfg FacadeConfig, cache map[string]map[string]bool) error {
	for _, file := range pass.Files {
		var inspectErr error
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, lk := range cfg.Lookups {
				if !calleeMatches(pass, call, lk) || lk.Arg >= len(call.Args) {
					continue
				}
				tv, ok := pass.TypesInfo.Types[call.Args[lk.Arg]]
				if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
					continue
				}
				name := constant.StringVal(tv.Value)
				names, err := registryNames(pass, cfg, cache, lk.Registry)
				if err != nil {
					inspectErr = err
					return false
				}
				if names == nil {
					continue // registry package not in this load
				}
				if !names[name] {
					pass.Reportf(call.Args[lk.Arg].Pos(), "registry",
						"%q does not name a registered %s (known: %s)", name, lk.Registry, sortedNames(names))
				}
			}
			return true
		})
		if inspectErr != nil {
			return inspectErr
		}
	}
	return nil
}

// calleeMatches reports whether call invokes the lookup function lk names.
func calleeMatches(pass *Pass, call *ast.CallExpr, lk LookupSpec) bool {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	default:
		return false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Name() != lk.Func {
		return false
	}
	return pkgMatches(fn.Pkg().Path(), lk.Pkg)
}

// pkgMatches matches a package path against a "/suffix" or exact spec.
func pkgMatches(path, spec string) bool {
	if strings.HasPrefix(spec, "/") {
		return strings.HasSuffix(path, spec)
	}
	return path == spec
}

// registryNames extracts (and caches) one registry's name set. A nil map
// with nil error means the defining package is not part of this load.
func registryNames(pass *Pass, cfg FacadeConfig, cache map[string]map[string]bool, registry string) (map[string]bool, error) {
	if names, ok := cache[registry]; ok {
		return names, nil
	}
	spec, ok := cfg.Registries[registry]
	if !ok {
		return nil, fmt.Errorf("facade: no registry spec for %q", registry)
	}
	var defPkg *Package
	for _, p := range pass.All {
		if pkgMatches(p.Path, spec.Pkg) {
			defPkg = p
			break
		}
	}
	if defPkg == nil {
		cache[registry] = nil
		return nil, nil
	}
	fn := findFunc(defPkg, spec.Func)
	if fn == nil {
		return nil, fmt.Errorf("facade: registry %s: no function %s in %s", registry, spec.Func, defPkg.Path)
	}
	names := map[string]bool{}
	switch spec.Kind {
	case "switch":
		collectSwitchStrings(defPkg, fn, names)
	case "literals":
		collectLiteralNames(defPkg, fn, names, false, map[string]bool{})
	case "calls":
		collectLiteralNames(defPkg, fn, names, true, map[string]bool{})
	default:
		return nil, fmt.Errorf("facade: registry %s: unknown extractor kind %q", registry, spec.Kind)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("facade: registry %s: extracted no names from %s.%s — extractor out of date with the registry's shape",
			registry, defPkg.Path, spec.Func)
	}
	cache[registry] = names
	return names, nil
}

// findFunc locates a top-level function declaration by name.
func findFunc(pkg *Package, name string) *ast.FuncDecl {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == name {
				return fn
			}
		}
	}
	return nil
}

// collectSwitchStrings gathers the string constants of every case clause.
func collectSwitchStrings(pkg *Package, fn *ast.FuncDecl, names map[string]bool) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		if !ok {
			return true
		}
		for _, e := range cc.List {
			if s, ok := constString(pkg, e); ok {
				names[s] = true
			}
		}
		return true
	})
}

// collectLiteralNames gathers registry names from composite literals: the
// value of a Name:/ID: field, or a leading positional string. With follow
// set it also descends into same-package functions called from the body
// (design/model registries build entries via constructors).
func collectLiteralNames(pkg *Package, fn *ast.FuncDecl, names map[string]bool, follow bool, seen map[string]bool) {
	if seen[fn.Name.Name] || len(seen) > 64 {
		return
	}
	seen[fn.Name.Name] = true
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			for i, elt := range n.Elts {
				switch elt := elt.(type) {
				case *ast.KeyValueExpr:
					if key, ok := elt.Key.(*ast.Ident); ok && (key.Name == "Name" || key.Name == "ID") {
						if s, ok := constString(pkg, elt.Value); ok {
							names[s] = true
						}
					}
				default:
					if i == 0 {
						if s, ok := constString(pkg, elt); ok {
							names[s] = true
						}
					}
				}
			}
		case *ast.CallExpr:
			if !follow {
				return true
			}
			var callee types.Object
			switch f := n.Fun.(type) {
			case *ast.Ident:
				callee = pkg.Info.Uses[f]
			case *ast.SelectorExpr:
				callee = pkg.Info.Uses[f.Sel]
			}
			if cf, ok := callee.(*types.Func); ok && cf.Pkg() != nil && cf.Pkg().Path() == pkg.Path {
				if decl := findFunc(pkg, cf.Name()); decl != nil && decl.Body != nil {
					collectLiteralNames(pkg, decl, names, follow, seen)
				}
			}
		}
		return true
	})
}

// constString evaluates e as a compile-time string constant.
func constString(pkg *Package, e ast.Expr) (string, bool) {
	if tv, ok := pkg.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	if id, ok := e.(*ast.Ident); ok {
		if c, ok := pkg.Info.Uses[id].(*types.Const); ok && c.Val().Kind() == constant.String {
			return constant.StringVal(c.Val()), true
		}
	}
	return "", false
}

// sortedNames renders a name set for diagnostics.
func sortedNames(names map[string]bool) string {
	var out []string
	for n := range names {
		out = append(out, n)
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}
