package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the conservative dataflow (taint) engine behind the
// fault-containment analyzers. It tracks values from designated sources
// through assignments, struct fields, returns and call arguments, across
// function and package boundaries, until they reach analyzer-designated
// sinks.
//
// The abstraction is deliberately coarse so it stays sound in the
// directions the paper cares about and cheap enough to run inside the
// tier-1 gate:
//
//   - Object-level, flow-insensitive: a variable (or struct field) is
//     tainted everywhere once any assignment taints it. Field taint is
//     per *field*, not per instance — if one rpc reply's payload flows
//     into reply.result, every read of reply.result is suspect.
//   - Interprocedural via a whole-module fixed point: tainted arguments
//     taint callee parameters; tainted returns taint call results.
//     Interface calls propagate through every module method that
//     implements the interface (see callgraph.go).
//   - Calls to functions outside the module (stdlib, func-typed fields)
//     pass taint through: any tainted argument taints the result.
//   - Sanitizers clear taint: a call to a designated validation function
//     yields a clean result, and additionally marks its (identifier-
//     rooted) arguments validated within the calling function, so
//     guard-style checks — `if err := validateX(args); err != nil {
//     return err }` followed by use of args — count.
//
// Soundness caveats (documented in DESIGN.md): aliasing through stored
// pointers is not tracked beyond field taint; a sanitizer call anywhere
// in a function clears its argument for the whole function (the engine
// has no statement ordering); closures invoked through variables are
// unknown calls; sanitizer bodies are trusted wholesale — taint is not
// tracked inside them, so a validator that forwards raw data into a
// sink is invisible; error-typed values never carry taint. These lose
// precision, not containment: each widens what is *reported*, except
// the sanitizer rules, which assume validation functions are called
// before use and actually validate — the code-review property the
// analyzer makes greppable.

// Origin records where taint entered a value chain.
type Origin struct {
	Pos  token.Pos
	Desc string
}

// FieldSource designates every read of a struct field as a taint source,
// e.g. rpc.Request.Args.
type FieldSource struct {
	PkgPath string // defining package import path
	Type    string // named struct type
	Field   string
	Desc    string // human description used in diagnostics
}

// TaintSpec configures one taint analysis.
type TaintSpec struct {
	// FieldSources lists struct fields whose reads are sources.
	FieldSources []FieldSource
	// CallSource, if set, inspects a call and reports a source
	// description when the call's result is tainted at birth (e.g.
	// kmem.Space.Arena of a possibly-remote cell).
	CallSource func(pkg *Package, call *ast.CallExpr) (string, bool)
	// Sanitizer reports whether a call to fn validates the data passing
	// through it.
	Sanitizer func(fn *types.Func) bool
}

// Taint is one converged whole-module taint analysis.
type Taint struct {
	spec  *TaintSpec
	pkgs  []*Package
	graph *CallGraph

	objTaint map[types.Object]*Origin
	retTaint map[*types.Func]*Origin
	// sanitized records, per declared function, the identifier-rooted
	// objects a sanitizer call vouched for in that function.
	sanitized map[*types.Func]map[types.Object]bool
	changed   bool
}

// NewTaint runs the analysis to a fixed point over the given packages
// (which must be type-checked) and returns the converged state.
func NewTaint(pkgs []*Package, graph *CallGraph, spec *TaintSpec) *Taint {
	tt := &Taint{
		spec:      spec,
		pkgs:      pkgs,
		graph:     graph,
		objTaint:  map[types.Object]*Origin{},
		retTaint:  map[*types.Func]*Origin{},
		sanitized: map[*types.Func]map[types.Object]bool{},
	}
	for {
		tt.changed = false
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
					fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
					if !ok {
						continue
					}
					// Sanitizer bodies are the trust boundary: they hold raw
					// remote data by design, and their results are forced
					// clean at every call site (callTaint). Scanning them
					// would leak taint through shared callee objects — e.g.
					// args.Parent.Cell() inside a validator taints the
					// receiver of kmem.Addr.Cell for the whole module.
					if tt.spec.Sanitizer != nil && tt.spec.Sanitizer(fn) {
						continue
					}
					tt.scanFunc(pkg, fn, fd)
				}
			}
		}
		if !tt.changed {
			return tt
		}
	}
}

// TaintOf reports the origin tainting expression e (evaluated in pkg), or
// nil when e is clean. Callers use it after convergence, at sink sites.
func (tt *Taint) TaintOf(pkg *Package, e ast.Expr) *Origin {
	return tt.exprTaint(pkg, e)
}

// SanitizedIn reports whether e's root object was passed through a
// sanitizer somewhere in fn.
func (tt *Taint) SanitizedIn(fn *types.Func, e ast.Expr) bool {
	root := rootObject(tt.pkgInfo(fn), e)
	if root == nil {
		return false
	}
	return tt.sanitized[fn.Origin()][root]
}

func (tt *Taint) pkgInfo(fn *types.Func) *types.Info {
	if n := tt.graph.NodeOf(fn); n != nil && n.Pkg != nil {
		return n.Pkg.Info
	}
	return nil
}

// isErrorType reports whether t is the error interface (see exprTaint:
// error values are exempt from taint).
func isErrorType(t types.Type) bool {
	return t.String() == "error" || types.Implements(t, errorIface())
}

func (tt *Taint) taintObj(obj types.Object, o *Origin) {
	if obj == nil || o == nil {
		return
	}
	if isErrorType(obj.Type()) {
		return
	}
	if _, ok := tt.objTaint[obj]; ok {
		return
	}
	tt.objTaint[obj] = o
	tt.changed = true
}

func (tt *Taint) taintRet(fn *types.Func, o *Origin) {
	if fn == nil || o == nil {
		return
	}
	fn = fn.Origin()
	if _, ok := tt.retTaint[fn]; ok {
		return
	}
	tt.retTaint[fn] = o
	tt.changed = true
}

func (tt *Taint) markSanitized(fn *types.Func, obj types.Object) {
	if obj == nil {
		return
	}
	fn = fn.Origin()
	m := tt.sanitized[fn]
	if m == nil {
		m = map[types.Object]bool{}
		tt.sanitized[fn] = m
	}
	if !m[obj] {
		m[obj] = true
		tt.changed = true
	}
}

// scanFunc propagates taint through one function body. Function literals
// nested in the body share the enclosing function's scope: assignments
// inside them use the same variable objects, and sanitizer calls inside
// them vouch within the enclosing function. Returns inside literals do
// not taint the enclosing function's results.
func (tt *Taint) scanFunc(pkg *Package, fn *types.Func, fd *ast.FuncDecl) {
	var walk func(n ast.Node, retOwner *types.Func)
	walk = func(n ast.Node, retOwner *types.Func) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			// Returns inside the literal belong to nobody we can name;
			// everything else flows in the enclosing scope.
			walkChildren(n.Body, func(c ast.Node) { walk(c, nil) })
			return
		case *ast.AssignStmt:
			tt.scanAssign(pkg, fn, n)
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					tt.scanValueSpec(pkg, vs)
				}
			}
		case *ast.RangeStmt:
			if o := tt.exprTaint(pkg, n.X); o != nil {
				tt.taintObj(assignTarget(pkg.Info, n.Key), o)
				tt.taintObj(assignTarget(pkg.Info, n.Value), o)
			}
		case *ast.ReturnStmt:
			if retOwner != nil {
				for _, r := range n.Results {
					if o := tt.exprTaint(pkg, r); o != nil {
						tt.taintRet(retOwner, o)
						break
					}
				}
				// Naked return with named tainted results.
				if len(n.Results) == 0 {
					if sig, ok := retOwner.Type().(*types.Signature); ok {
						for i := 0; i < sig.Results().Len(); i++ {
							if o := tt.objTaint[sig.Results().At(i)]; o != nil {
								tt.taintRet(retOwner, o)
								break
							}
						}
					}
				}
			}
		case *ast.CallExpr:
			tt.scanCall(pkg, fn, n)
		}
		walkChildren(n, func(c ast.Node) { walk(c, retOwner) })
	}
	walkChildren(fd.Body, func(c ast.Node) { walk(c, fn) })
}

// walkChildren visits n's direct children (ast.Inspect-style but one
// level, so the walker controls descent into function literals).
func walkChildren(n ast.Node, visit func(ast.Node)) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		if c != nil {
			visit(c)
		}
		return false
	})
}

func (tt *Taint) scanAssign(pkg *Package, fn *types.Func, as *ast.AssignStmt) {
	if len(as.Lhs) == len(as.Rhs) {
		for i, rhs := range as.Rhs {
			if o := tt.exprTaint(pkg, rhs); o != nil {
				tt.taintObj(assignTarget(pkg.Info, as.Lhs[i]), o)
			}
		}
		return
	}
	// Tuple assignment (call, type assertion, map read): one RHS.
	if len(as.Rhs) == 1 {
		if o := tt.exprTaint(pkg, as.Rhs[0]); o != nil {
			for _, lhs := range as.Lhs {
				tt.taintObj(assignTarget(pkg.Info, lhs), o)
			}
		}
	}
}

func (tt *Taint) scanValueSpec(pkg *Package, vs *ast.ValueSpec) {
	if len(vs.Values) == 0 {
		return
	}
	if len(vs.Values) == len(vs.Names) {
		for i, v := range vs.Values {
			if o := tt.exprTaint(pkg, v); o != nil {
				tt.taintObj(pkg.Info.Defs[vs.Names[i]], o)
			}
		}
		return
	}
	if o := tt.exprTaint(pkg, vs.Values[0]); o != nil {
		for _, name := range vs.Names {
			tt.taintObj(pkg.Info.Defs[name], o)
		}
	}
}

// scanCall propagates argument taint into known callees and records
// sanitizer vouching.
func (tt *Taint) scanCall(pkg *Package, fn *types.Func, call *ast.CallExpr) {
	callee := CalleeFunc(pkg.Info, call)
	if callee == nil {
		return
	}
	if tt.spec.Sanitizer != nil && tt.spec.Sanitizer(callee) {
		for _, arg := range call.Args {
			tt.markSanitized(fn, rootObject(pkg.Info, arg))
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			tt.markSanitized(fn, rootObject(pkg.Info, sel.X))
		}
		return
	}
	// Resolve to module bodies (conservatively for interface calls).
	targets := tt.graph.resolveCall(pkg, call)
	for _, tgt := range targets {
		sig, ok := tgt.node.Fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		for i, arg := range call.Args {
			o := tt.exprTaint(pkg, arg)
			if o == nil {
				continue
			}
			// A value the caller already vetted enters the callee clean:
			// validation at the boundary covers everything downstream.
			if tt.sanitized[fn.Origin()][rootObject(pkg.Info, arg)] {
				continue
			}
			pi := i
			if sig.Variadic() && pi >= sig.Params().Len() {
				pi = sig.Params().Len() - 1
			}
			if pi >= 0 && pi < sig.Params().Len() {
				tt.taintObj(sig.Params().At(pi), o)
			}
		}
		// A tainted receiver taints the callee's receiver variable.
		if sig.Recv() != nil {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if o := tt.exprTaint(pkg, sel.X); o != nil {
					tt.taintObj(sig.Recv(), o)
				}
			}
		}
	}
}

// exprTaint evaluates the taint of an expression. Error-typed values
// never carry taint: an error is a failure signal, not remote payload
// (errdrop polices those), and because return taint is per-function —
// not per-result — a tainted `err` threaded through `return a, b, err`
// would otherwise poison every data result a function cleanly computed.
func (tt *Taint) exprTaint(pkg *Package, e ast.Expr) *Origin {
	if e != nil {
		if t := pkg.Info.TypeOf(e); t != nil && isErrorType(t) {
			return nil
		}
	}
	switch e := e.(type) {
	case nil:
		return nil
	case *ast.Ident:
		if obj := pkg.Info.Uses[e]; obj != nil {
			return tt.objTaint[obj]
		}
		return tt.objTaint[pkg.Info.Defs[e]]
	case *ast.SelectorExpr:
		// A designated source field read?
		if src := tt.fieldSourceOf(pkg, e); src != nil {
			return src
		}
		// The field object itself tainted (per-field, all instances)?
		if sel, ok := pkg.Info.Uses[e.Sel]; ok {
			if o := tt.objTaint[sel]; o != nil {
				return o
			}
		}
		// Deep taint: a field of a tainted value is tainted.
		return tt.exprTaint(pkg, e.X)
	case *ast.CallExpr:
		return tt.callTaint(pkg, e)
	case *ast.ParenExpr:
		return tt.exprTaint(pkg, e.X)
	case *ast.StarExpr:
		return tt.exprTaint(pkg, e.X)
	case *ast.UnaryExpr:
		return tt.exprTaint(pkg, e.X)
	case *ast.IndexExpr:
		if o := tt.exprTaint(pkg, e.X); o != nil {
			return o
		}
		return nil
	case *ast.SliceExpr:
		return tt.exprTaint(pkg, e.X)
	case *ast.TypeAssertExpr:
		// A type assertion checks shape, not content: taint survives.
		return tt.exprTaint(pkg, e.X)
	case *ast.BinaryExpr:
		if o := tt.exprTaint(pkg, e.X); o != nil {
			return o
		}
		return tt.exprTaint(pkg, e.Y)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if o := tt.exprTaint(pkg, el); o != nil {
				return o
			}
		}
		return nil
	}
	return nil
}

// callTaint evaluates the taint of a call's result.
func (tt *Taint) callTaint(pkg *Package, call *ast.CallExpr) *Origin {
	// Source call (e.g. Arena() of a possibly-remote cell)?
	if tt.spec.CallSource != nil {
		if desc, ok := tt.spec.CallSource(pkg, call); ok {
			return &Origin{Pos: call.Pos(), Desc: desc}
		}
	}
	callee := CalleeFunc(pkg.Info, call)
	if callee != nil && tt.spec.Sanitizer != nil && tt.spec.Sanitizer(callee) {
		return nil
	}
	// Type conversion T(x): taint of x.
	if len(call.Args) == 1 && callee == nil {
		if _, isType := pkg.Info.Types[call.Fun]; isType && pkg.Info.Types[call.Fun].IsType() {
			return tt.exprTaint(pkg, call.Args[0])
		}
	}
	// Known module callee(s): converged return taint.
	if callee != nil {
		targets := tt.graph.resolveCall(pkg, call)
		if len(targets) > 0 {
			for _, tgt := range targets {
				if o := tt.retTaint[tgt.node.Fn.Origin()]; o != nil {
					return o
				}
			}
			return nil
		}
	}
	// Unknown callee (stdlib, func value, interface with no module
	// implementation): taint passes through from any argument, and from
	// the receiver of a method call.
	for _, arg := range call.Args {
		if o := tt.exprTaint(pkg, arg); o != nil {
			return o
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if o := tt.exprTaint(pkg, sel.X); o != nil {
			return o
		}
	}
	return nil
}

// fieldSourceOf matches a selector against the designated source fields.
func (tt *Taint) fieldSourceOf(pkg *Package, sel *ast.SelectorExpr) *Origin {
	obj, ok := pkg.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() || obj.Pkg() == nil {
		return nil
	}
	for i := range tt.spec.FieldSources {
		fs := &tt.spec.FieldSources[i]
		if obj.Name() != fs.Field || obj.Pkg().Path() != fs.PkgPath {
			continue
		}
		if named := namedOwnerOf(pkg, sel); named == fs.Type {
			return &Origin{Pos: sel.Pos(), Desc: fs.Desc}
		}
	}
	return nil
}

// namedOwnerOf returns the named type of the selector's base (through
// pointers), "" when unknown.
func namedOwnerOf(pkg *Package, sel *ast.SelectorExpr) string {
	t := pkg.Info.TypeOf(sel.X)
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// assignTarget resolves the object an assignment writes: an identifier's
// variable, a selector's field object, or the base variable of an index/
// dereference (writing a[i] or *p taints the container).
func assignTarget(info *types.Info, lhs ast.Expr) types.Object {
	switch lhs := lhs.(type) {
	case nil:
		return nil
	case *ast.Ident:
		if lhs.Name == "_" {
			return nil
		}
		if obj := info.Defs[lhs]; obj != nil {
			return obj
		}
		return info.Uses[lhs]
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[lhs.Sel].(*types.Var); ok && obj.IsField() {
			return obj
		}
		return nil
	case *ast.IndexExpr:
		return assignTarget(info, lhs.X)
	case *ast.StarExpr:
		return assignTarget(info, lhs.X)
	case *ast.ParenExpr:
		return assignTarget(info, lhs.X)
	}
	return nil
}

// rootObject strips selectors, indexes, calls and dereferences down to
// the base identifier's object (nil when the expression has no stable
// root, e.g. a call result used inline).
func rootObject(info *types.Info, e ast.Expr) types.Object {
	if info == nil {
		return nil
	}
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.CallExpr:
			// A sanitized receiver roots method-call results:
			// validate(args) then args.Get() stays suppressed.
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				e = sel.X
				continue
			}
			return nil
		default:
			return nil
		}
	}
}
