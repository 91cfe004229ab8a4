package workload

import (
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/membership"
)

// BootHive boots a machine partitioned into the given number of cells
// (1 up to core.MaxCells), with /tmp homed on the last cell. Counts that
// divide the paper's 4-node evaluation machine boot exactly that machine;
// larger (or non-dividing) counts scale the machine to one node per cell,
// keeping per-cell resources identical to the paper's configuration.
func BootHive(cells int) *core.Hive {
	return BootHiveWith(cells, core.DefaultConfig().Seed, nil)
}

// scaleConfig sizes cfg's machine for the requested cell count and installs
// the standard mounts. The 4-node evaluation machine is kept whenever the
// count divides it so the calibrated 1/2/4-cell timings are untouched.
func scaleConfig(cfg core.Config, cells int) core.Config {
	cfg.Cells = cells
	if cells > 0 && (cells > cfg.Machine.Nodes || cfg.Machine.Nodes%cells != 0) {
		cfg.Machine.Nodes = cells
	}
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

// BootHiveSeeded is BootHive with an explicit seed (fault campaigns vary
// the seed across trials).
func BootHiveSeeded(cells int, seed int64) *core.Hive {
	return BootHiveWith(cells, seed, nil)
}

// BootHiveWith is BootHiveSeeded with a config hook applied after the
// standard fields are set — the knob the tracing harnesses use to widen
// trace rings without duplicating the standard boot recipe.
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
	cfg := core.DefaultConfig()
	cfg.Cells = 1
	cfg.Machine.FirewallEnabled = false
	cfg.Mounts = standardMounts(1)
	cfg.Agreement = membership.Oracle
	return core.Boot(cfg)
}
