package lint

import (
	"fmt"
	"sort"
	"strings"
)

// layering: DESIGN.md §2 splits the module into substrates (sim,
// machine, kmem, disk, rpc, careful, stats, trace, sched, parallel —
// the FLASH/SimOS replacements) and core packages (vm, fs, cow, proc,
// membership, core, wax, workload, faultinject — the paper's
// contribution). The import DAG must flow strictly downward: a
// substrate importing a core package is an inversion that calcifies
// fast and eventually makes the machine model depend on kernel policy.
// Config.Layers ranks every internal package; an import is legal only
// from a higher rank to a strictly lower one. Packages missing from the
// table are flagged so the table cannot silently rot.
var layeringAnalyzer = &Analyzer{
	Name: "layering",
	Doc:  "imports between internal packages must flow strictly down the DESIGN.md §2 layer ranks",
	Run:  runLayering,
}

func runLayering(p *Pass) {
	from, ok := p.Cfg.internalName(p.Pkg.Path)
	if !ok {
		return // cmd/, examples/ and the root package may import anything
	}
	fromRank, known := p.Cfg.Layers[from]
	if !known {
		for _, file := range p.Pkg.Files {
			p.Reportf(file.Package, "package %s is not in the layering table; add it to lint.DefaultConfig with a rank", p.Pkg.Path)
			break // one report per package is enough
		}
		return
	}
	for _, file := range p.Pkg.Files {
		for _, imp := range file.Imports {
			ipath := strings.Trim(imp.Path.Value, `"`)
			if ipath == p.Cfg.ModulePath {
				p.Reportf(imp.Pos(), "internal package %s imports the root package %s; the public API sits above every layer", from, ipath)
				continue
			}
			to, ok := p.Cfg.internalName(ipath)
			if !ok {
				continue
			}
			toRank, known := p.Cfg.Layers[to]
			if !known {
				p.Reportf(imp.Pos(), "imported package %s is not in the layering table; add it to lint.DefaultConfig with a rank", ipath)
				continue
			}
			if toRank >= fromRank {
				p.Reportf(imp.Pos(), "layering inversion: %s (%s, rank %d) must not import %s (%s, rank %d); the DESIGN.md §2 DAG flows strictly downward",
					from, layerKind(fromRank), fromRank, to, layerKind(toRank), toRank)
			}
		}
	}
}

// layerKind names the half of the DESIGN.md §2 inventory a rank belongs
// to: substrates are ranks 0-3, core packages 4 and above.
func layerKind(rank int) string {
	if rank <= 3 {
		return "substrate"
	}
	return "core"
}

// LayerTable renders the configured ranks, lowest first, for -list and
// the docs. Iteration is over sorted names so output is deterministic.
func LayerTable(cfg *Config) []string {
	names := make([]string, 0, len(cfg.Layers))
	for name := range cfg.Layers {
		names = append(names, name)
	}
	sort.Strings(names)
	sort.SliceStable(names, func(i, j int) bool { return cfg.Layers[names[i]] < cfg.Layers[names[j]] })
	var out []string
	for _, n := range names {
		out = append(out, fmt.Sprintf("rank %2d %-9s %s", cfg.Layers[n], layerKind(cfg.Layers[n]), n))
	}
	return out
}
