// obs_overhead.go measures what the observability layer costs on the two
// contended hot paths: the mediated open+close pair and the abstract-socket
// round trip. The obs cells pair a world without a metrics registry (the
// disabled path is a single atomic pointer load per mediation) against the
// same world with metrics attached; the tracing cells pair a metrics world
// against the same world also sampling provenance spans. Both budgets are
// gated on the single-goroutine file cell, where per-request cost is
// isolated from scheduler interference: metrics at most 5%, sampled
// tracing at most 10%.
package lmbench

import (
	"fmt"

	"pfirewall/internal/kernel"
	"pfirewall/internal/obs"
	"pfirewall/internal/pf"
	"pfirewall/internal/programs"
)

// DefaultObsSampleEvery is the latency sampling period of the metrics
// cells — the same default kernel.AttachObs applies.
const DefaultObsSampleEvery = 16

// DefaultTraceEvery is the provenance-span sampling period of the tracing
// cells: one syscall in sixteen (the same period as latency sampling)
// carries a full provenance span through the gauntlet.
const DefaultTraceEvery = 16

// Budgets, as B/A ratios on the upper end of the 95% interval.
const (
	metricsBudget = 1.05
	tracingBudget = 1.10
)

// traceWorld builds the armed benchmark world (EPTSPC configuration,
// deployment-scale rule base), optionally with the metrics layer attached
// and sampling provenance spans every traceEvery syscalls.
func traceWorld(withObs bool, sampleEvery, traceEvery int) *programs.World {
	cfg := pf.Optimized()
	wopts := programs.WorldOpts{PF: &cfg}
	if withObs {
		wopts.Obs = obs.New()
		wopts.ObsEvery = sampleEvery
		wopts.TraceEvery = traceEvery
	}
	w := programs.NewWorld(wopts)
	if _, err := w.InstallRules(SyntheticRuleBase(FullRuleBaseSize)); err != nil {
		panic(err)
	}
	return w
}

// armedWorld is the armed world without observability.
func armedWorld() *programs.World { return traceWorld(false, 0, 0) }

// openStatClose is the tracing cells' file body: three syscalls, coprime
// with the power-of-two sampling mask. A two-syscall open+close loop pins
// the sampled slot to whichever syscall the counter phase selects (all
// opens, or all unmediated closes), making the span rate bimodal across
// runs; three slots rotate through every residue.
func openStatClose(p *kernel.Proc) {
	fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0)
	if err != nil {
		panic(err)
	}
	if _, err := p.Stat("/etc/passwd"); err != nil {
		panic(err)
	}
	p.Close(fd)
}

// obsCells pairs the armed world without metrics against it with metrics
// attached.
func obsCells(fanout []int) []Cell {
	return overheadCells("obs", "open+close", openClose, fanout, metricsBudget,
		worldSide{"metrics-off", armedWorld},
		worldSide{"metrics-on", func() *programs.World { return traceWorld(true, DefaultObsSampleEvery, 0) }})
}

// tracingCells pairs the metrics world with tracing disabled against it
// sampling one syscall in DefaultTraceEvery into a provenance span.
func tracingCells(fanout []int) []Cell {
	return overheadCells("tracing", "open+stat+close", openStatClose, fanout, tracingBudget,
		worldSide{"trace-off", func() *programs.World { return traceWorld(true, DefaultObsSampleEvery, 0) }},
		worldSide{"trace-sampled", func() *programs.World {
			return traceWorld(true, DefaultObsSampleEvery, DefaultTraceEvery)
		}})
}

// worldSide names a world builder.
type worldSide struct {
	name  string
	world func() *programs.World
}

// overheadCells pairs world builders off and on over a file body and the
// abstract round trip at each fan-out, gating the single-goroutine file
// cell's ratio at budget (that cell runs at full size under -smoke too).
func overheadCells(family, file string, body func(*kernel.Proc), fanout []int, budget float64, off, on worldSide) []Cell {
	wls := []struct {
		name   string
		bodies func(w *programs.World, g int) []func()
	}{
		{file, func(w *programs.World, g int) []func() { return procBodies(w, g, body) }},
		{"ipc-abstract", func(w *programs.World, g int) []func() { return ipcBodies(w, "abstract", g) }},
	}
	var out []Cell
	for i, wl := range wls {
		for _, g := range fanout {
			side := func(ws worldSide) Side {
				return Side{Name: ws.name, Setup: func() Instance {
					return Instance{Bodies: wl.bodies(ws.world(), g)}
				}}
			}
			base := side(off)
			c := Cell{Name: fmt.Sprintf("%s/%s/g=%d", family, wl.name, g), A: &base, B: side(on)}
			if i == 0 && g == 1 {
				c.Gates = []Gate{ratioAtMost(fmt.Sprintf("%s overhead <= %.0f%%", family, (budget-1)*100), budget)}
				c = atFullSize(c)
			}
			out = append(out, c)
		}
	}
	return out
}
