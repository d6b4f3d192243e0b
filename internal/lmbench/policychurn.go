// policychurn.go measures the policy control plane. Three questions:
//
//   - publish latency: how long one rule change takes to land, full
//     recompile (pf.Config.FullRecompile) vs incremental bucket-level
//     delta compile, across rule-base sizes — the tentpole claim is that
//     the incremental path makes publish cost independent of base size;
//   - propagation: how long one canary DROP takes to reach every engine
//     of a small fleet when streamed through policyd publishers, with the
//     verdict flip verified in-world after every round;
//   - disturbance: what churning the rule base through the control plane
//     does to the mediated open path's p99, measured as paired
//     quiet/churning rounds and gated on the interval of their ratio.
package lmbench

import (
	"fmt"
	"sync/atomic"

	"pfirewall/internal/kernel"
	"pfirewall/internal/pf"
	"pfirewall/internal/pftables"
	"pfirewall/internal/policyd"
	"pfirewall/internal/programs"
	"pfirewall/internal/rulegen"
)

// policyWorlds is the propagation fleet size.
const policyWorlds = 4

// publishModes: both sides carry the full optimized config including the
// dispatch index; "full" forces every publish through a from-scratch
// compile, isolating the incremental delta compiler as the only delta.
var publishModes = []struct {
	name string
	cfg  pf.Config
}{
	{"full", pf.Config{CtxCache: true, LazyCtx: true, EptChains: true, RuleIndex: true, FullRecompile: true}},
	{"incremental", pf.Config{CtxCache: true, LazyCtx: true, EptChains: true, RuleIndex: true}},
}

// policyProbeRule renders the inert probe rule used for publish timing:
// non-entrypoint (so it rides the generic lane the delta compiler
// patches), with a subject label no process carries.
const policyProbeRule = `pftables -A input -s {policy_probe_t} -d {tmp_t} -o FILE_UNLINK -j DROP`

// policyCells declares the publish sweep over sizes, the propagation cell
// and the disturbance cell.
func policyCells(sizes []int) []Cell {
	out := policyPublishCells(sizes)
	return append(out, policyPropagationCell(), policyDisturbanceCell())
}

// disturbanceIters is the timed opens per side per round of the
// disturbance cell: the sample its per-round p99 is read from.
const disturbanceIters = 10000

// policyPublishCells time single-rule publishes against installed bases of
// each size, full (A) against incremental (B). One op is one publish; the
// probe rule alternates between appended and removed, so the base size is
// stable across the measured window. The largest size carries the speedup
// gate: at deployment scale (>=10k rules) incremental publish must beat
// the full rebuild 10x; a trimmed sweep still has to show 1.5x.
func policyPublishCells(sizes []int) []Cell {
	var out []Cell
	for i, n := range sizes {
		var sides [2]Side
		for j, m := range publishModes {
			sides[j] = Side{Name: m.name, Setup: func() Instance { return publishInstance(m.name, m.cfg, n) }}
		}
		c := Cell{Name: fmt.Sprintf("policy/publish/rules=%d", n), A: &sides[0], B: sides[1]}
		if i == len(sizes)-1 {
			need := 10.0
			if n < 10000 {
				need = 1.5
			}
			c.Gates = []Gate{speedupAtLeast(fmt.Sprintf("incremental publish >= %.1fx at %d rules", need, n), need)}
		}
		out = append(out, c)
	}
	return out
}

// speedupAtLeast gates a paired cell on how many times cheaper B is than
// A, judged two ways, both of which must clear need: the ratio of mean
// op costs (the statistic the gate has always used, so a heavy tail in B
// still fails it) and the lower end of the speedup's 95% interval, 1 over
// the upper end of the B/A interval.
func speedupAtLeast(name string, need float64) Gate {
	return Gate{Name: name, Check: func(r *Result) error {
		if r.Ratio == nil {
			return fmt.Errorf("no paired ratio")
		}
		if s := mean(r.A.RoundNs) / mean(r.B.RoundNs); s < need {
			return fmt.Errorf("B only %.1fx faster than A (ratio of means), want >=%.1fx", s, need)
		}
		if s := 1 / r.Ratio.Hi; s < need {
			return fmt.Errorf("B only %.1fx faster than A (95%% CI lower bound), want >=%.1fx", s, need)
		}
		return nil
	}}
}

func publishInstance(mode string, cfg pf.Config, n int) Instance {
	w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
	if _, err := w.InstallRules(rulegen.ScaleRuleBase(1, n)); err != nil {
		panic(err)
	}
	cmd, err := pftables.Parse(w.Env, policyProbeRule)
	if err != nil {
		panic(err)
	}
	probe, eng := cmd.Rule, w.Engine
	match := func(r *pf.Rule) bool { return r == probe }
	installed := false
	st0 := eng.PublishStats()
	return Instance{
		Bodies: []func(){func() {
			if installed {
				mustPolicy(eng.Remove("input", match))
			} else {
				mustPolicy(eng.Append("input", probe))
			}
			installed = !installed
		}},
		Done: func() map[string]float64 {
			st := eng.PublishStats()
			delta := st.DeltaCompiles - st0.DeltaCompiles
			if mode == "incremental" && delta == 0 {
				panic("policychurn: incremental cell never took the delta-compile path")
			}
			return map[string]float64{
				"publishes":      float64(st.Publishes - st0.Publishes),
				"delta_compiles": float64(delta),
			}
		},
	}
}

// policyPropagationCell streams a canary DROP to a small fleet of worlds
// through policyd publishers and back out again. One op is one canary
// round: publish, verify every engine answers with the canary verdict,
// drain, verify the accept is restored. A probe that sees the old verdict
// after its publish round trip completed is a stale verdict; the gate
// allows none.
func policyPropagationCell() Cell {
	return Cell{Name: "policy/propagation", B: Side{Name: "fleet", Setup: propagationInstance},
		Gates: []Gate{{Name: "0 stale verdicts", Check: func(r *Result) error {
			if n := r.B.Extra["stale_verdicts"]; n != 0 {
				return fmt.Errorf("%.0f probes saw a stale verdict after a completed publish", n)
			}
			return nil
		}}}}
}

func propagationInstance() Instance {
	cfg := pf.Optimized()
	var (
		probes  []*kernel.Proc
		names   []string
		clients []*policyd.Client
		servers []*policyd.Server
	)
	for i := 0; i < policyWorlds; i++ {
		w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
		// A base rule so opens are mediated at all (MayFilter gating).
		if _, err := w.InstallRules([]string{
			`pftables -A input -s user_t -d shadow_t -o FILE_OPEN -j DROP`,
		}); err != nil {
			panic(err)
		}
		name := fmt.Sprintf("pfpolicy-bench-%d", i)
		srv, err := policyd.Serve(w.K, w.Env, w.Engine, name, nil)
		if err != nil {
			panic(err)
		}
		cl, err := policyd.Dial(w.K, name)
		if err != nil {
			panic(err)
		}
		probes = append(probes, w.NewProc(kernel.ProcSpec{UID: 1000, Label: "user_t"}))
		names = append(names, name)
		clients = append(clients, cl)
		servers = append(servers, srv)
	}
	pub := policyd.NewPublisher(names, clients)

	canary := []string{`pftables -A input -s user_t -o FILE_OPEN -j DROP`}
	drain := []string{`pftables -D input --tag canary.pft`}
	apply := func(file string, lines []string) {
		for _, r := range pub.Apply(file, lines, 0) {
			if r.Err != "" || !r.Resp.OK {
				panic(fmt.Sprintf("policychurn: %s to %s: %s %s", file, r.Name, r.Err, r.Resp.Err))
			}
		}
	}
	stale := 0
	return Instance{
		Bodies: []func(){func() {
			apply("canary.pft", canary)
			// The publish responses are back, so every engine must already
			// answer with the canary verdict: a stale accept is a lost update.
			for _, p := range probes {
				if fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0); err == nil {
					p.Close(fd)
					stale++
				}
			}
			apply("drain.pft", drain)
			// And the drain must restore the accept.
			for _, p := range probes {
				fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0)
				if err != nil {
					stale++
					continue
				}
				p.Close(fd)
			}
		}},
		Done: func() map[string]float64 {
			pub.Close()
			for _, srv := range servers {
				srv.Close()
			}
			return map[string]float64{"worlds": policyWorlds, "stale_verdicts": float64(stale)}
		},
	}
}

// churnWaveLines builds one inert non-entrypoint wave batch (generic-lane
// rules, so every publish exercises the bucket delta compiler).
func churnWaveLines(tag int) []string {
	lines := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		lines = append(lines, fmt.Sprintf(
			`pftables -A input -s {policy_probe_t} -d {scl_obj%02d_t} -o FILE_UNLINK -j DROP`, (tag+i)%24))
	}
	return lines
}

// policyDisturbanceCell measures mediated open+close p99 on one world
// whose rule base is the paper-scale 1200 rules, quiet (A) against
// churning (B): during every B round a streamer drives wave applies and
// tag-drains through policyd. The gates: every request resolved to a
// verdict, and p99 at most 10% worse while churning. The cell runs at
// full size under -smoke too.
func policyDisturbanceCell() Cell {
	// Both sides run on one world: whichever side sets up first builds it,
	// and the churning side's teardown releases it.
	var d *disturbance
	get := func() *disturbance {
		if d == nil {
			d = newDisturbance()
		}
		return d
	}
	quiet := Side{Name: "quiet", Setup: func() Instance {
		return Instance{Bodies: []func(){get().body}}
	}}
	churning := Side{Name: "churning", Setup: func() Instance {
		cur := get()
		return Instance{Bodies: []func(){cur.body}, Round: cur.churn, Done: func() map[string]float64 {
			d = nil
			return cur.close()
		}}
	}}
	return atFullSize(Cell{Name: "policy/disturbance", A: &quiet, B: churning, Iters: disturbanceIters, Tail: true, Gates: []Gate{
		{Name: "verdicts conserved", Check: func(r *Result) error {
			if r.B.Extra["verdicts_conserved"] != 1 {
				return fmt.Errorf("verdicts not conserved under churn: %.0f requests vs %.0f accepts + %.0f drops",
					r.B.Extra["requests"], r.B.Extra["accepts"], r.B.Extra["drops"])
			}
			return nil
		}},
		ratioAtMost("open+close p99 disturbance <= 10%", 1.10),
	}})
}

// disturbance is the disturbance cell's shared world.
type disturbance struct {
	w   *programs.World
	srv *policyd.Server
	// cl is the streamer's client, dialed once; rounds hand it to one
	// goroutine at a time (churn's end joins the streamer before the next
	// round), so the kernel's single-flow invariant holds.
	cl  *policyd.Client
	p   *kernel.Proc
	st0 pf.PublishStats
}

func newDisturbance() *disturbance {
	cfg := pf.Optimized()
	w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
	if _, err := w.InstallRules(rulegen.ScaleRuleBase(1, 1200)); err != nil {
		panic(err)
	}
	srv, err := policyd.Serve(w.K, w.Env, w.Engine, "pfpolicy-disturb", nil)
	if err != nil {
		panic(err)
	}
	cl, err := policyd.Dial(w.K, "pfpolicy-disturb")
	if err != nil {
		panic(err)
	}
	return &disturbance{w: w, srv: srv, cl: cl, p: benchProc(w), st0: w.Engine.PublishStats()}
}

func (d *disturbance) body() { openClose(d.p) }

// churn starts the streamer and returns once its first wave landed, so
// every churning round overlaps at least one real publish.
func (d *disturbance) churn() (end func()) {
	var stop atomic.Bool
	done := make(chan struct{})
	ready := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			resp, err := d.cl.Apply("bench-wave.pft", churnWaveLines(i), 0)
			if err != nil || !resp.OK {
				panic(fmt.Sprintf("policychurn: wave apply: %v %s", err, resp.Err))
			}
			resp, err = d.cl.Apply("bench-drain.pft",
				[]string{`pftables -D input --tag bench-wave.pft`}, 0)
			if err != nil || !resp.OK {
				panic(fmt.Sprintf("policychurn: wave drain: %v %s", err, resp.Err))
			}
			if i == 0 {
				close(ready)
			}
			if stop.Load() {
				return
			}
		}
	}()
	<-ready
	return func() {
		stop.Store(true)
		<-done
	}
}

// close releases the world and reports the publishes that landed and
// verdict conservation over the engine's whole lifetime.
func (d *disturbance) close() map[string]float64 {
	d.cl.Close()
	d.srv.Close()
	st, eng := d.w.Engine.PublishStats(), d.w.Engine
	req, acc, drop := eng.Stats.Requests.Load(), eng.Stats.Accepts.Load(), eng.Stats.Drops.Load()
	conserved := 0.0
	if req == acc+drop {
		conserved = 1
	}
	return map[string]float64{
		"publishes":          float64(st.Publishes - d.st0.Publishes),
		"delta_compiles":     float64(st.DeltaCompiles - d.st0.DeltaCompiles),
		"requests":           float64(req),
		"accepts":            float64(acc),
		"drops":              float64(drop),
		"verdicts_conserved": conserved,
	}
}

func mustPolicy(err error) {
	if err != nil {
		panic(err)
	}
}
