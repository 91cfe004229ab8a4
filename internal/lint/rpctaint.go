package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// rpctaint: the paper's distrust-of-other-cells rule. A Hive cell
// "assumes other cells are faulty until proven otherwise": anything that
// arrives over the wire — RPC request arguments on the server side, RPC
// reply contents on the client side, raw SIPS payloads — may have been
// produced by a corrupt kernel, so it must be vetted before it is allowed
// to change kernel state. Otherwise a single wild value from a dying
// peer becomes a wild write in a healthy cell, which is exactly the
// fault propagation the architecture exists to stop.
//
// Sources are the two fields wire data enters through: rpc.Request.Args
// and machine.SIPSMsg.Payload (replies ride SIPS payloads too, so
// Endpoint.Call results are tainted transitively through the rpc
// package's own plumbing). Sinks are the irreversible kernel-state
// mutations: arena writes/frees (kmem), COW tree edits (cow) and page
// cache insertions (vm). Reads are deliberately not sinks — kmem reads
// are tag-checked and may return garbage by design; it is mutation that
// must be gated. Sanitizers are named validation functions
// (validate*/vet*/sanitize*/verify*, or *Checksum*): calling one on the
// data — or on the variable holding it, guard-style — clears the taint
// for that function.
var rpctaintAnalyzer = &Analyzer{
	Name:      "rpctaint",
	Doc:       "data from rpc.Request args or SIPS payloads must pass a validate*/vet*/verify*/checksum function before reaching kmem/cow/vm mutation sinks (distrust other cells)",
	RunModule: runRpctaint,
}

// rpctaintSinks maps (package path → type name → method set) for the
// kernel-state mutations remote data must not reach unvetted.
var rpctaintSinks = map[string]map[string]map[string]bool{
	"repro/internal/kmem": {
		"Arena": {"WriteWord": true, "Free": true},
	},
	"repro/internal/cow": {
		"Manager": {"Record": true, "Fork": true},
	},
	// VM.Fault is deliberately NOT a sink: it is the generic page-fault
	// entry, validates through the resolver chain and returns errors on
	// garbage, and faulting a page a peer named is exactly how shared
	// memory is used. Import/InsertLocal bypass that gate and install
	// cache entries directly, so they must see vetted data.
	"repro/internal/vm": {
		"VM": {"Import": true, "InsertLocal": true},
	},
}

var sanitizerNameRE = regexp.MustCompile(`(?i)^(validate|vet|sanitiz|verify)`)

// isSanitizerFunc reports whether fn is a designated validation function.
func isSanitizerFunc(fn *types.Func) bool {
	return sanitizerNameRE.MatchString(fn.Name()) ||
		strings.Contains(strings.ToLower(fn.Name()), "checksum")
}

func runRpctaint(mp *ModulePass) {
	tt := NewTaint(mp.Pkgs, mp.Graph(), &TaintSpec{
		FieldSources: []FieldSource{
			{PkgPath: "repro/internal/rpc", Type: "Request", Field: "Args",
				Desc: "rpc request args (sent by another cell)"},
			{PkgPath: "repro/internal/machine", Type: "SIPSMsg", Field: "Payload",
				Desc: "a SIPS message payload (sent by another cell)"},
		},
		Sanitizer: isSanitizerFunc,
	})
	for _, pkg := range mp.Pkgs {
		if pkg.Info == nil || !mp.Cfg.ModelPackage(pkg.Path) {
			continue
		}
		// The wire layers themselves handle raw payloads by design: rpc
		// unwraps requests/replies, machine delivers SIPS lines (with the
		// checksum drop). The distrust rule binds their *clients*.
		if pkg.Path == "repro/internal/rpc" || pkg.Path == "repro/internal/machine" {
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
				// A sanitizer may do its vetting right at the sink
				// (read-check-write); its own body is the gate.
				if isSanitizerFunc(fn) {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					method, typeName := rpctaintSinkOf(pkg, call)
					if method == "" {
						return true
					}
					for _, arg := range call.Args {
						o := tt.TaintOf(pkg, arg)
						if o == nil || tt.SanitizedIn(fn, arg) {
							continue
						}
						mp.Reportf(call.Pos(), "%s.%s argument %s carries %s without validation; vet remote data (validate*/vet*/verify*) before it mutates kernel state", typeName, method, types.ExprString(arg), o.Desc)
						break
					}
					return true
				})
			}
		}
	}
}

// rpctaintSinkOf matches a call against the sink table, returning the
// method and receiver type names ("" when not a sink).
func rpctaintSinkOf(pkg *Package, call *ast.CallExpr) (method, typeName string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	t := pkg.Info.TypeOf(sel.X)
	if t == nil {
		return "", ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", ""
	}
	byType, ok := rpctaintSinks[named.Obj().Pkg().Path()]
	if !ok {
		return "", ""
	}
	if byType[named.Obj().Name()][sel.Sel.Name] {
		return sel.Sel.Name, named.Obj().Name()
	}
	return "", ""
}
