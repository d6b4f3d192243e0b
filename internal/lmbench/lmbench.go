// Package lmbench is the repository's benchmark suite: one cell runner
// (cell.go) and the registry of every cell pfbench measures. It reproduces
// the paper's Table 6 microbenchmark suite — the lmbench-style per-syscall
// latency measurements across Process Firewall configurations DISABLED,
// BASE (default allow rule only), FULL (complete rule base, no
// optimizations), CONCACHE (+context caching), LAZYCON (+lazy context
// evaluation) and EPTSPC (+entrypoint-specific chains) — plus Table 7,
// Figures 4 and 5, and the beyond-paper scaling, overhead and control-plane
// measurements.
package lmbench

import (
	"fmt"
	"time"

	"pfirewall/internal/kernel"
	"pfirewall/internal/pf"
	"pfirewall/internal/programs"
	"pfirewall/internal/rulegen"
	"pfirewall/internal/safeopen"
	"pfirewall/internal/webbench"
)

// Config names one Table 6 column.
type Config struct {
	Name string
	// PF disabled entirely when Attach is false.
	Attach bool
	// Rules installs the synthetic full rule base.
	Rules bool
	// Engine optimization flags.
	Engine pf.Config
}

// Configs returns the six Table 6 columns in paper order.
func Configs() []Config {
	return []Config{
		{Name: "DISABLED"},
		{Name: "BASE", Attach: true},
		{Name: "FULL", Attach: true, Rules: true},
		{Name: "CONCACHE", Attach: true, Rules: true, Engine: pf.Config{CtxCache: true}},
		{Name: "LAZYCON", Attach: true, Rules: true, Engine: pf.Config{CtxCache: true, LazyCtx: true}},
		{Name: "EPTSPC", Attach: true, Rules: true, Engine: pf.Config{CtxCache: true, LazyCtx: true, EptChains: true}},
	}
}

// FullRuleBaseSize is the size of the synthetic rule base, matching the
// paper's "1218 rules ... generated by setting a lower threshold (100) for
// rule suggestion".
const FullRuleBaseSize = 1218

// SyntheticRuleBase builds a deployment-scale rule base: mostly
// entrypoint-specific deny rules across many programs (as rule suggestion
// produces), plus a few generic rules. Only a handful can ever apply to
// the benchmark process, which is exactly the situation the entrypoint
// index exploits.
func SyntheticRuleBase(n int) []string {
	rules := make([]string, 0, n)
	// A few generic (non-entrypoint) rules come first, as in the paper's
	// chain layout.
	rules = append(rules,
		`pftables -o LNK_FILE_READ -m COMPARE --v1 C_DAC_OWNER --v2 C_TGT_DAC_OWNER --nequal -j DROP`,
		`pftables -I input -o PROCESS_SIGNAL_DELIVERY -j SIGNAL_CHAIN`,
		`pftables -I signal_chain -m SIGNAL_MATCH -m STATE --key 'sig' --cmp 1 -j DROP`,
		`pftables -A signal_chain -m SIGNAL_MATCH -j STATE --set --key 'sig' --value 1`,
	)
	for i := 0; len(rules) < n; i++ {
		prog := fmt.Sprintf("/usr/bin/prog%03d", i%331)
		ep := 0x2000 + (i*0x40)%0xffff
		rules = append(rules, fmt.Sprintf(
			"pftables -p %s -i 0x%x -s SYSHIGH -d ~{lib_t|usr_t} -o FILE_OPEN -j DROP", prog, ep))
	}
	return rules[:n]
}

// World builds a benchmark world for cfg.
func World(cfg Config) *programs.World {
	var opts programs.WorldOpts
	if cfg.Attach {
		e := cfg.Engine
		opts.PF = &e
	}
	w := programs.NewWorld(opts)
	if cfg.Rules {
		if _, err := w.InstallRules(SyntheticRuleBase(FullRuleBaseSize)); err != nil {
			panic(err)
		}
	}
	return w
}

// Workload is one Table 6 row: a named syscall pattern.
type Workload struct {
	Name string
	// Setup prepares per-process state and returns the iteration body.
	Setup func(w *programs.World, p *kernel.Proc) func()
}

// Workloads returns the Table 6 rows in paper order.
func Workloads() []Workload {
	return []Workload{
		{Name: "null", Setup: func(w *programs.World, p *kernel.Proc) func() {
			return func() { p.Getpid() }
		}},
		{Name: "stat", Setup: func(w *programs.World, p *kernel.Proc) func() {
			return func() { p.Stat("/etc/passwd") }
		}},
		{Name: "read", Setup: func(w *programs.World, p *kernel.Proc) func() {
			fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0)
			if err != nil {
				panic(err)
			}
			return func() { p.Read(fd, 1) }
		}},
		{Name: "write", Setup: func(w *programs.World, p *kernel.Proc) func() {
			fd, err := p.Open("/tmp/bench-write", kernel.O_CREAT|kernel.O_RDWR, 0o600)
			if err != nil {
				panic(err)
			}
			buf := []byte{'x'}
			n := 0
			return func() {
				p.Write(fd, buf)
				// Keep the file bounded, as lmbench's write to /dev/null is.
				if n++; n%64 == 0 {
					p.Ftruncate(fd)
				}
			}
		}},
		{Name: "fstat", Setup: func(w *programs.World, p *kernel.Proc) func() {
			fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0)
			if err != nil {
				panic(err)
			}
			return func() { p.Fstat(fd) }
		}},
		{Name: "open+close", Setup: func(w *programs.World, p *kernel.Proc) func() {
			return func() {
				fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0)
				if err != nil {
					panic(err)
				}
				p.Close(fd)
			}
		}},
		{Name: "fork+exit", Setup: func(w *programs.World, p *kernel.Proc) func() {
			return func() {
				child, err := p.Fork()
				if err != nil {
					panic(err)
				}
				child.Exit(0)
			}
		}},
		{Name: "fork+execve", Setup: func(w *programs.World, p *kernel.Proc) func() {
			env := map[string]string{"PATH": "/bin"}
			return func() {
				child, err := p.Fork()
				if err != nil {
					panic(err)
				}
				if err := child.Execve(programs.BinSh, env); err != nil {
					panic(err)
				}
				child.Exit(0)
			}
		}},
		{Name: "fork+sh -c", Setup: func(w *programs.World, p *kernel.Proc) func() {
			env := map[string]string{"PATH": "/bin"}
			return func() {
				// sh -c spawns a shell which itself forks and execs the
				// command, then both exit.
				shell, err := p.Fork()
				if err != nil {
					panic(err)
				}
				if err := shell.Execve(programs.BinSh, env); err != nil {
					panic(err)
				}
				cmd, err := shell.Fork()
				if err != nil {
					panic(err)
				}
				if err := cmd.Execve(programs.BinBash, env); err != nil {
					panic(err)
				}
				cmd.Exit(0)
				shell.Exit(0)
			}
		}},
	}
}

// benchProc starts the process the microbenchmarks run as, with a small
// realistic stack so entrypoint collection has work to do.
func benchProc(w *programs.World) *kernel.Proc {
	p := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "sshd_t", Exec: programs.BinSshd})
	// Real servers sit ~15-30 frames deep at syscall time; entrypoint
	// collection has to walk all of them.
	for i := 0; i < 16; i++ {
		p.PushFrame(programs.BinSshd, uint64(0x100+i*0x10))
	}
	p.SyscallSite(programs.BinSshd, 0x300)
	return p
}

// table6Cells pairs every Table 6 row under every config with the same row
// under DISABLED. The DISABLED/DISABLED cells are A/A calibration: their
// ratio interval is the harness's noise floor for the row, and
// table6/null/DISABLED — the unmediated null syscall — is the suite's.
func table6Cells() []Cell {
	var out []Cell
	cfgs := Configs()
	for _, wl := range Workloads() {
		base := table6Side(wl, cfgs[0])
		for _, cfg := range cfgs {
			out = append(out, Cell{Name: "table6/" + wl.Name + "/" + cfg.Name, A: &base, B: table6Side(wl, cfg)})
		}
	}
	return out
}

func table6Side(wl Workload, cfg Config) Side {
	return Side{Name: cfg.Name, Setup: func() Instance {
		w := World(cfg)
		return Instance{Bodies: []func(){wl.Setup(w, benchProc(w))}}
	}}
}

// size is one scale of the whole suite.
type size struct {
	rounds      int
	target      time.Duration // round length for auto-sized cells
	macroRounds int           // rounds for Table 7 and Figure 5, whose ops take milliseconds
	macroScale  int           // Table 7 build units / boot services / web requests
	webClients  []int         // Table 7 web rows
	fig5C       []int
	fig5N       []int
	fanout      []int
	ruleSizes   []int // rulescale, policy publish and verify sweeps
	worlds      []string
	fleets      []int
	fleetTime   time.Duration
}

var (
	fullSize = size{
		rounds: 61, target: 10 * time.Millisecond, macroRounds: 15,
		macroScale: 50, webClients: webbench.Table7WebClients,
		fig5C: webbench.Figure5Clients, fig5N: webbench.Figure5PathLens,
		fanout: ParallelFanout, ruleSizes: rulegen.ScaleSizes,
		worlds: []string{"small", "medium", "large"}, fleets: []int{4, 8}, fleetTime: 2 * time.Second,
	}
	smokeSize = size{
		rounds: 31, target: 5 * time.Millisecond, macroRounds: 9,
		macroScale: 10, webClients: []int{1, 100},
		fig5C: []int{1, 10}, fig5N: []int{1, 9},
		fanout: []int{1, 4}, ruleSizes: []int{100, 1200},
		worlds: []string{"tiny", "small"}, fleets: []int{2}, fleetTime: 300 * time.Millisecond,
	}
)

// atFullSize keeps a cell at its full size under -smoke as well. The
// ratio-gated cells need it: their budgets sit a few percent above the
// measured overhead, and the wider interval of a smoke-size cell cannot
// resolve that.
func atFullSize(c Cell) Cell {
	c.Rounds = fullSize.rounds
	if c.Iters == 0 {
		c.Target = fullSize.target
	}
	return c
}

// Cells is the registry: every measurement pfbench makes, at full or smoke
// size, in run order. Constructing it builds nothing; each side's world is
// built when its cell runs.
func Cells(smoke bool) []Cell {
	sz := fullSize
	if smoke {
		sz = smokeSize
	}
	rules := SyntheticRuleBase(FullRuleBaseSize)
	var cells []Cell
	for _, family := range [][]Cell{
		table6Cells(),
		table7Cells(sz.macroScale, sz.webClients, rules, sz.macroRounds),
		figure4Cells(safeopen.PaperPathLens),
		figure5Cells(sz.fig5C, sz.fig5N, sz.macroRounds),
		parallelCells(sz.fanout),
		ipcCells(sz.fanout),
		obsCells(sz.fanout),
		tracingCells(sz.fanout),
		ruleScaleCells(sz.ruleSizes),
		allocCells(),
		policyCells(sz.ruleSizes),
		worldScaleCells(sz.worlds, sz.fleets, sz.fleetTime),
		verifyCells(sz.ruleSizes),
	} {
		cells = append(cells, family...)
	}
	for i := range cells {
		if cells[i].Rounds == 0 {
			cells[i].Rounds = sz.rounds
		}
		if cells[i].Iters == 0 && cells[i].Target == 0 {
			cells[i].Target = sz.target
		}
	}
	return cells
}
