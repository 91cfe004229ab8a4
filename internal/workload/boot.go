package workload

import (
	"repro/internal/core"
	"repro/internal/fs"
)

// BootHive boots a machine partitioned into the given number of cells
// (1 up to core.MaxCells), with /tmp homed on the last cell. Counts that
// divide the paper's 4-node evaluation machine boot exactly that machine;
// larger (or non-dividing) counts scale the machine to one node per cell,
// keeping per-cell resources identical to the paper's configuration.
func BootHive(cells int) *core.Hive {
	return BootHiveWith(cells, core.DefaultConfig().Seed, nil)
}

// MachineNodes returns the node count of the machine BootHive boots for
// the given cell count. The 4-node evaluation machine is kept whenever the
// count divides it, so the calibrated 1/2/4-cell timings are untouched;
// any other count scales to one node per cell.
func MachineNodes(cells int) int {
	nodes := core.DefaultConfig().Machine.Nodes
	if cells > 0 && nodes%cells != 0 {
		return cells
	}
	return nodes
}

// scaleConfig sizes cfg's machine for the requested cell count
// (MachineNodes) and installs the standard mounts.
func scaleConfig(cfg core.Config, cells int) core.Config {
	cfg.Cells = cells
	cfg.Machine.Nodes = MachineNodes(cells)
	cfg.Mounts = standardMounts(cells)
	return cfg
}

// standardMounts places /tmp on the last cell (the paper's intermediate-
// file server) and the shared source tree and data sets on cell 0.
func standardMounts(cells int) []fs.Mount {
	return []fs.Mount{
		{Prefix: "/tmp", Cell: cells - 1},
		{Prefix: "/usr", Cell: 0},
		{Prefix: "/data", Cell: 0},
	}
}

// BootHiveWith is BootHive with an explicit seed (fault campaigns vary the
// seed across trials) and a config hook applied after the standard fields
// are set — the knob the tracing harnesses use to widen trace rings
// without duplicating the standard boot recipe.
func BootHiveWith(cells int, seed int64, mutate func(*core.Config)) *core.Hive {
	cfg := scaleConfig(core.DefaultConfig(), cells)
	cfg.Seed = seed
	if mutate != nil {
		mutate(&cfg)
	}
	return core.Boot(cfg)
}

// BootIRIX boots the IRIX 5.2 baseline: the same machine and kernel code
// paths as a single cell spanning all nodes, with Hive's protection
// hardware turned off — no firewall checks, no clock monitoring of peers
// (a single cell has no neighbours), no careful-reference traffic.
func BootIRIX() *core.Hive {
	return BootIRIXWith(core.DefaultConfig().Seed, nil)
}

// BootIRIXWith is BootIRIX with an explicit seed and a config hook, as
// BootHiveWith is BootHive's: the one-cell hive with the firewall off.
func BootIRIXWith(seed int64, mutate func(*core.Config)) *core.Hive {
	return BootHiveWith(1, seed, func(cfg *core.Config) {
		cfg.Machine.FirewallEnabled = false
		if mutate != nil {
			mutate(cfg)
		}
	})
}
