package lint

import "go/ast"

// walltime: model code must run on sim virtual time only. A single
// time.Now in a latency calculation silently couples results to the
// host machine; time.Sleep couples them to the Go scheduler. The root
// package and every package under internal/ are checked, with no
// exemption; cmd/ and examples/ are out of scope.
var walltimeAnalyzer = &Analyzer{
	Name: "walltime",
	Doc:  "no time.Now/Since/Sleep/timers in model packages; virtual time only",
	Run:  runWalltime,
}

// walltimeBanned is the wall-clock surface of package time. Pure
// value/format helpers (time.Duration, time.Unix, constants) stay legal:
// the model uses time.Duration for virtual durations.
var walltimeBanned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

func runWalltime(p *Pass) {
	if !p.Cfg.ModelPackage(p.Pkg.Path) {
		return
	}
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !walltimeBanned[sel.Sel.Name] {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if ipath, ok := p.importedPackage(file, id); ok && ipath == "time" {
				p.Reportf(sel.Pos(), "time.%s is wall-clock; model code must use sim virtual time (Engine.Now / Task.Sleep)", sel.Sel.Name)
			}
			return true
		})
	}
}
