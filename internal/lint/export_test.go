package lint

import (
	"go/ast"
	"go/types"
)

// ObjectTainted reports the origin tainting a variable or field object
// directly (tests use this to probe propagation).
func (tt *Taint) ObjectTainted(obj types.Object) *Origin { return tt.objTaint[obj] }

// ResultTainted reports the origin tainting fn's results.
func (tt *Taint) ResultTainted(fn *types.Func) *Origin {
	if fn == nil {
		return nil
	}
	return tt.retTaint[fn.Origin()]
}

// EnclosingFunc returns the declared function whose body contains the
// given function literal (closures belong to their enclosing function).
func (g *CallGraph) EnclosingFunc(lit *ast.FuncLit) *CGNode { return g.funcOfLit[lit] }
