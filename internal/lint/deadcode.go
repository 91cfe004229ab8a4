package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
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
//   - the root package's exported functions, and every function its
//     bench_test.go names (`make bench` runs those benchmarks);
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
	Doc:       "every function is reached from a main, an init, a package initialiser, the root package's API or benchmarks, or a standard-library interface",
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
					roots = append(roots, namedIn(g, pkg.Info, d, nil)...)
				}
			}
		}
		if isRoot {
			roots = append(roots, benchRoots(mp, g, pkg)...)
		}
	}
	reached := g.Reachable(roots...)
	for _, n := range g.Nodes() {
		if reached[n] || !(whole || isMain(n.Pkg)) {
			continue
		}
		mp.Reportf(n.Decl.Name.Pos(), "%s is reached by no main, init, package initialiser, root-package export or benchmark, or standard-library interface; delete it",
			funcName(n.Fn))
	}
}

// namedIn returns the module functions node names. Identifiers that
// resolve to no graph node go through fallback when it is set.
func namedIn(g *CallGraph, info *types.Info, node ast.Node, fallback func(*types.Func) *CGNode) []*CGNode {
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
		if named := g.Named(fn); named != nil {
			out = append(out, named...)
		} else if fallback != nil {
			out = append(out, fallback(fn))
		}
		return true
	})
	return out
}

// benchRoots type-checks the root package together with its
// bench_test.go, which the loader skips, and returns every module
// function the benchmarks name. The second check shares the importer, so
// other packages' functions are the graph's own objects; the root
// package's own are fresh objects, matched to their nodes by position.
func benchRoots(mp *ModulePass, g *CallGraph, pkg *Package) []*CGNode {
	path := filepath.Join(pkg.Dir, "bench_test.go")
	if _, err := os.Stat(path); err != nil || pkg.imp == nil {
		return nil
	}
	f, err := parser.ParseFile(pkg.Fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		mp.Reportf(pkg.Files[0].Package, "parsing %s for benchmark roots: %v", path, err)
		return nil
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: pkg.imp}
	if _, err := conf.Check(pkg.Path, pkg.Fset, append(slices.Clip(pkg.Files), f), info); err != nil {
		mp.Reportf(pkg.Files[0].Package, "type-checking %s for benchmark roots: %v", path, err)
		return nil
	}
	byPos := map[token.Pos]*CGNode{}
	for _, n := range g.Nodes() {
		if n.Pkg == pkg {
			byPos[n.Fn.Pos()] = n
		}
	}
	return namedIn(g, info, f, func(fn *types.Func) *CGNode { return byPos[fn.Pos()] })
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
