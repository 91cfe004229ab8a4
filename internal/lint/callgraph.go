package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file builds the module-wide call graph the interprocedural
// analyzers walk. It is purely go/types-based (stdlib only): nodes are
// the module's declared functions and methods, edges are resolved call
// sites. Static calls resolve exactly; calls through interface values
// resolve conservatively to every module method that implements the
// interface's method (sound over-approximation for module code — a
// dynamic call cannot reach a method the graph does not list, unless the
// callee lives outside the module, which the taint engine models
// separately as an unknown call). Alongside the call edges each node
// keeps reference edges: every function its body names, called or not,
// so a function passed as a value (an RPC handler, a task body, a hook)
// counts as reached.

// CGNode is one declared function or method in the module.
type CGNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl // nil for interface methods (no body)
	Pkg  *Package      // owning package (nil for interface methods)

	// Callees and Callers are deterministic: sorted by position of the
	// call site, then callee/caller path.
	Callees []*CGEdge
	Callers []*CGEdge
	// Refs lists every module function the body names, called or not,
	// in source order (repeats included). A named interface method
	// stands for every module method with that name.
	Refs []*CGNode
}

// CGEdge is one resolved call site.
type CGEdge struct {
	Caller *CGNode
	Callee *CGNode
	Site   *ast.CallExpr
	// Dynamic marks an edge added by conservative interface resolution:
	// the call may reach the callee, rather than provably reaching it.
	Dynamic bool
}

// CallGraph indexes the module's functions and their call edges.
type CallGraph struct {
	nodes map[*types.Func]*CGNode
	// funcOfLit maps each function literal to the declared function whose
	// body lexically contains it (closures are analyzed as part of their
	// enclosing function).
	funcOfLit map[*ast.FuncLit]*CGNode
	// methodsByName indexes module methods for interface resolution.
	methodsByName map[string][]*CGNode
}

// NodeOf returns the graph node for fn (nil when fn is not a module
// function).
func (g *CallGraph) NodeOf(fn *types.Func) *CGNode {
	if fn == nil {
		return nil
	}
	return g.nodes[fn.Origin()]
}

// Nodes returns every node sorted by (package path, position) so every
// downstream iteration is deterministic.
func (g *CallGraph) Nodes() []*CGNode {
	out := make([]*CGNode, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if pa, pb := pkgPathOf(a.Fn), pkgPathOf(b.Fn); pa != pb {
			return pa < pb
		}
		if a.Fn.Pos() != b.Fn.Pos() {
			return a.Fn.Pos() < b.Fn.Pos()
		}
		return a.Fn.FullName() < b.Fn.FullName()
	})
	return out
}

func pkgPathOf(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// Reachable returns the set of nodes reachable from the seeds (following
// reference edges, which cover every call edge, seeds included).
func (g *CallGraph) Reachable(seeds ...*CGNode) map[*CGNode]bool {
	seen := map[*CGNode]bool{}
	var walk func(n *CGNode)
	walk = func(n *CGNode) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		for _, r := range n.Refs {
			walk(r)
		}
	}
	for _, s := range seeds {
		walk(s)
	}
	return seen
}

// BuildCallGraph constructs the graph over the given packages. Every
// package must carry type info (Info != nil); syntax-only packages are
// skipped.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		nodes:         map[*types.Func]*CGNode{},
		funcOfLit:     map[*ast.FuncLit]*CGNode{},
		methodsByName: map[string][]*CGNode{},
	}
	// Pass 1: declare nodes for every FuncDecl.
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &CGNode{Fn: obj, Decl: fd, Pkg: pkg}
				g.nodes[obj] = n
				if fd.Recv != nil {
					g.methodsByName[fd.Name.Name] = append(g.methodsByName[fd.Name.Name], n)
				}
			}
		}
	}
	// Deterministic method buckets (package load order is sorted, but be
	// explicit: resolution appends edges in bucket order).
	names := make([]string, 0, len(g.methodsByName))
	for name := range g.methodsByName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := g.methodsByName[name]
		sort.SliceStable(b, func(i, j int) bool {
			if pa, pb := pkgPathOf(b[i].Fn), pkgPathOf(b[j].Fn); pa != pb {
				return pa < pb
			}
			return b[i].Fn.Pos() < b[j].Fn.Pos()
		})
	}
	// Pass 2: resolve call sites.
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				caller := g.NodeOf(pkg.Info.Defs[fd.Name].(*types.Func))
				if caller == nil {
					continue
				}
				g.indexBody(pkg, caller, fd.Body)
			}
		}
	}
	// Caller lists mirror callee lists; sort both by site position.
	// (Nodes() iterates deterministically; the per-node sorts are also
	// order-independent, but hivelint lints itself.)
	for _, n := range g.Nodes() {
		sort.SliceStable(n.Callees, func(i, j int) bool {
			return edgeLess(n.Callees[i], n.Callees[j])
		})
		sort.SliceStable(n.Callers, func(i, j int) bool {
			return edgeLess(n.Callers[i], n.Callers[j])
		})
	}
	return g
}

func edgeLess(a, b *CGEdge) bool {
	pa, pb := token.NoPos, token.NoPos
	if a.Site != nil {
		pa = a.Site.Pos()
	}
	if b.Site != nil {
		pb = b.Site.Pos()
	}
	if pa != pb {
		return pa < pb
	}
	return a.Callee.Fn.FullName() < b.Callee.Fn.FullName()
}

// indexBody records the call edges and closure ownership inside one
// function body.
func (g *CallGraph) indexBody(pkg *Package, caller *CGNode, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			g.funcOfLit[n] = caller
		case *ast.CallExpr:
			for _, callee := range g.resolveCall(pkg, n) {
				e := &CGEdge{Caller: caller, Callee: callee.node, Site: n, Dynamic: callee.dynamic}
				caller.Callees = append(caller.Callees, e)
				callee.node.Callers = append(callee.node.Callers, e)
			}
		case *ast.Ident:
			if fn, ok := pkg.Info.Uses[n].(*types.Func); ok {
				caller.Refs = append(caller.Refs, g.Named(fn)...)
			}
		}
		return true
	})
}

// Named returns the module functions a use of fn may denote: fn's own
// node, or for an interface method every module method with its name.
func (g *CallGraph) Named(fn *types.Func) []*CGNode {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return g.methodsByName[fn.Name()]
	}
	if n := g.NodeOf(fn); n != nil {
		return []*CGNode{n}
	}
	return nil
}

type resolved struct {
	node    *CGNode
	dynamic bool
}

// CalleeFunc resolves the static *types.Func a call invokes, whether or
// not it is a module function. Returns nil for calls through plain
// function values, built-ins, and type conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// resolveCall maps one call expression to the module functions it may
// invoke.
func (g *CallGraph) resolveCall(pkg *Package, call *ast.CallExpr) []resolved {
	fn := CalleeFunc(pkg.Info, call)
	if fn == nil {
		return nil
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			return g.resolveInterfaceCall(fn, sig)
		}
	}
	if n := g.NodeOf(fn); n != nil {
		return []resolved{{node: n}}
	}
	return nil
}

// resolveInterfaceCall returns every module method that may satisfy an
// interface method call: same name, receiver type implements the
// interface.
func (g *CallGraph) resolveInterfaceCall(fn *types.Func, sig *types.Signature) []resolved {
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []resolved
	for _, cand := range g.methodsByName[fn.Name()] {
		recv := cand.Fn.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		if types.Implements(recv.Type(), iface) {
			out = append(out, resolved{node: cand, dynamic: true})
			continue
		}
		// A value receiver also serves pointer values; check the pointer
		// type when the receiver itself does not implement.
		if _, isPtr := recv.Type().(*types.Pointer); !isPtr {
			if types.Implements(types.NewPointer(recv.Type()), iface) {
				out = append(out, resolved{node: cand, dynamic: true})
			}
		}
	}
	return out
}
