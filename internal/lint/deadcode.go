package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// deadcode: every function is reached. A mechanism no experiment, example
// or CLI runs cannot be measured against the paper, and code nothing runs
// still costs every reader. The analyzer walks the call graph's reference
// edges (calls plus functions named as values, interface methods standing
// for every module method of that name) from these roots:
//
//   - every main and init, and every function a package-level initialiser
//     names;
//   - the root package's exported functions;
//   - every method that satisfies a standard-library interface, since the
//     standard library calls those (String, Error, sort and heap methods).
//
// It polices main packages always and library packages only when the pass
// holds the root package — a whole-module run — because a package linted
// alone has callers the pass cannot see. A test hook that other
// packages' tests use carries a //hive:lint-ignore deadcode pragma naming
// the test; an accessor only its own package's tests use belongs in that
// package's export_test.go.
var deadcodeAnalyzer = &Analyzer{
	Name:      "deadcode",
	Doc:       "every function is reached from a main, an init, a package initialiser, the root package's API, or a standard-library interface",
	RunModule: runDeadcode,
}

func runDeadcode(mp *ModulePass) {
	g := mp.Graph()
	whole := false
	for _, pkg := range mp.Pkgs {
		whole = whole || pkg.Path == mp.Cfg.ModulePath
	}
	isMain := func(pkg *Package) bool { return pkg.Files[0].Name.Name == "main" }
	stdIfaces := stdInterfaces(mp)
	var roots []*CGNode
	for _, pkg := range mp.Pkgs {
		if pkg.Info == nil {
			continue
		}
		isRoot := pkg.Path == mp.Cfg.ModulePath
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					n := g.NodeOf(pkg.Info.Defs[d.Name].(*types.Func))
					name := d.Name.Name
					switch {
					case d.Recv == nil && (name == "init" || isMain(pkg) && name == "main" || isRoot && ast.IsExported(name)):
						roots = append(roots, n)
					case d.Recv != nil && satisfiesStd(n.Fn, stdIfaces[name]):
						roots = append(roots, n)
					}
				case *ast.GenDecl:
					roots = append(roots, namedIn(g, pkg.Info, d)...)
				}
			}
		}
	}
	reached := g.Reachable(roots...)
	for _, n := range g.Nodes() {
		if reached[n] || !(whole || isMain(n.Pkg)) {
			continue
		}
		mp.Reportf(n.Decl.Name.Pos(), "%s is reached by no main, init, package initialiser, root-package export, or standard-library interface; delete it",
			funcName(n.Fn))
	}
}

// namedIn returns the module functions node names.
func namedIn(g *CallGraph, info *types.Info, node ast.Node) []*CGNode {
	var out []*CGNode
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		out = append(out, g.Named(fn)...)
		return true
	})
	return out
}

// stdInterfaces indexes, by method name, every named interface declared
// outside the module in a package the loaded packages import, directly or
// not, plus error.
func stdInterfaces(mp *ModulePass) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			visit(imp)
		}
		if p.Path() == mp.Cfg.ModulePath || strings.HasPrefix(p.Path(), mp.Cfg.ModulePath+"/") {
			return
		}
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				add(iface)
			}
		}
	}
	for _, pkg := range mp.Pkgs {
		if pkg.Types != nil {
			visit(pkg.Types)
		}
	}
	return byName
}

// satisfiesStd reports whether method fn's receiver type, or a pointer to
// it, implements one of the candidate interfaces.
func satisfiesStd(fn *types.Func, candidates []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	for _, iface := range candidates {
		if types.Implements(recv, iface) {
			return true
		}
		if _, isPtr := recv.(*types.Pointer); !isPtr && types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// funcName renders fn as a reader finds it in its package: F, T.M or
// (*T).M.
func funcName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name()
	}
	t := types.TypeString(recv.Type(), types.RelativeTo(fn.Pkg()))
	if strings.HasPrefix(t, "*") {
		t = "(" + t + ")"
	}
	return t + "." + fn.Name()
}
