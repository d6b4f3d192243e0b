package main

import (
	"errors"
	"fmt"

	"pfirewall/internal/kernel"
	"pfirewall/internal/pftables"
	"pfirewall/internal/policyd"
	"pfirewall/internal/programs"
)

// The control stream mirrors fleet's rule churn: a tagged wave of
// waveSize rules, then a drain by tag (or, every fifth cycle, a rollback
// by version); every eighth cycle is instead a full reload, -F plus the
// whole rule base as one batch. Unlike fleet's inert waves, every wave
// rule drops the probe file at one entrypoint of /bin/bash, so the probe
// the control client runs after each acknowledged publish sees that
// publish flip its verdict.
const (
	waveSize    = 16
	waveTag     = "pfbench-wave"
	drainSrc    = "pfbench-drain.pft"
	probeEPBase = 0x7000 // entrypoints probeEPBase + k*0x10, k < 256, inside /bin/bash's mapping
)

var drainLines = []string{"pftables -D input --tag " + waveTag}

type cycleKind uint8

const (
	cycleDrain cycleKind = iota
	cycleRollback
	cycleReload
)

type cycle struct {
	kind    cycleKind
	wave    []string
	probeEP uint64 // an entrypoint the wave drops
}

// genCycles generates n control cycles from the seed.
func genCycles(seed uint64, n int) []cycle {
	r := newRand(seed, 2)
	out := make([]cycle, n)
	var eps [256]uint64
	for i := range eps {
		eps[i] = probeEPBase + uint64(i)*0x10
	}
	for c := range out {
		if c%8 == 7 {
			out[c].kind = cycleReload
			continue
		}
		// waveSize distinct entrypoints: a partial Fisher-Yates shuffle.
		lines := make([]string, waveSize)
		for i := range lines {
			j := i + r.intn(len(eps)-i)
			eps[i], eps[j] = eps[j], eps[i]
			lines[i] = fmt.Sprintf("pftables -p %s -i 0x%x -d {tmp_t} -o FILE_OPEN -j DROP", programs.BinBash, eps[i])
		}
		out[c] = cycle{kind: cycleDrain, wave: lines, probeEP: eps[r.intn(waveSize)]}
		if c%5 == 4 {
			out[c].kind = cycleRollback
		}
	}
	return out
}

// daemonPublisher goes through policyd over its one connection
// (policy-churn). A batch the gate vetoes is re-sent with the check
// overridden, as fleet's churn does, and counted.
type daemonPublisher struct {
	cl        *policyd.Client
	noCheck   bool // skip the gate on every batch (transport replay)
	vetoes    int64
	transport *recorder // round trip minus the server's publish time
}

func (p *daemonPublisher) do(req policyd.Request) (policyd.Response, error) {
	t0 := mono()
	resp, err := p.cl.Do(req, 0)
	if err == nil {
		p.transport.add(mono() - t0 - resp.PublishNs)
	}
	return resp, err
}

func (p *daemonPublisher) apply(src string, lines []string) (int, error) {
	req := policyd.Request{Op: "apply", Src: src, Lines: lines, NoCheck: p.noCheck}
	resp, err := p.do(req)
	if err == nil && !resp.OK && len(resp.Findings) > 0 {
		p.vetoes++
		req.NoCheck = true
		resp, err = p.do(req)
	}
	return respRules(resp, err)
}

func (p *daemonPublisher) rollback() (int, error) {
	return respRules(p.do(policyd.Request{Op: "rollback"}))
}

func respRules(resp policyd.Response, err error) (int, error) {
	if err == nil && !resp.OK {
		err = fmt.Errorf("policyd: %s %v", resp.Err, resp.Findings)
	}
	return resp.Rules, err
}

// controller is the control client: it runs cycles, times every apply
// from send to acknowledgement, and checks each publish with a probe.
//
// With policyd (policy-churn) it runs fleet's mix through the daemon,
// and a publish is timed in wall time from send to acknowledgement.
// Without one (syscall-hot) a deployment changes policy by
// reloading its rule file, so each cycle is two full reloads applied to
// the engine as single batches: the base plus the cycle's wave, then the
// base alone. Every timed publish is then the same operation; fleet's mix
// has clusters a thousand times apart, and its p90 fell on the edge of
// one. These reloads run alone, after the data window, so each is timed
// in process CPU time, like a set-up: a reload takes tens of milliseconds,
// long enough that its wall time stretches with the host's steal share.
type controller struct {
	d         *deployment
	dp        *daemonPublisher // nil without policyd
	cycles    []cycle
	reload    []string
	baseRules int
	publish   *recorder // apply latency
	spans     *spanLog  // traced phase only
	led       ledger
	next      int // next cycle
}

// controller builds the workload's control client.
func (d *deployment) controller(cycles []cycle) *controller {
	c := &controller{
		d: d, cycles: cycles,
		reload:    d.reloadLines(),
		baseRules: d.w.Engine.RuleCount(),
		publish:   newRecorder(4096),
	}
	if d.cl != nil {
		c.dp = &daemonPublisher{cl: d.cl, transport: newRecorder(4096)}
	}
	return c
}

// apply publishes one batch, through policyd when there is one, and
// returns the live rule count.
func (c *controller) apply(src string, lines []string) (int, error) {
	if c.dp != nil {
		return c.dp.apply(src, lines)
	}
	eng := c.d.w.Engine
	_, err := pftables.ApplyAllFrom(c.d.w.Env, eng, src, lines)
	return eng.RuleCount(), err
}

// runUntil runs cycles until deadline (mono ns); the cycle in flight at
// the deadline completes.
func (c *controller) runUntil(deadline int64) {
	for mono() < deadline {
		c.runCycle()
	}
}

func (c *controller) runCycle() {
	cy := &c.cycles[c.next%len(c.cycles)]
	c.next++
	reload := func() (int, error) { return c.apply(c.d.baseSrc, c.reload) }
	if c.dp == nil {
		if cy.kind == cycleReload {
			return // no wave to carry
		}
		withWave := append(append([]string(nil), c.reload...), cy.wave...)
		c.step("reload+wave", true, func() (int, error) { return c.apply(c.d.baseSrc, withWave) }, c.baseRules+waveSize, true, cy.probeEP)
		c.step("reload", true, reload, c.baseRules, false, cy.probeEP)
		return
	}
	if cy.kind == cycleReload {
		c.step("reload", true, reload, c.baseRules, false, probeEPBase)
		return
	}
	c.step("wave", true, func() (int, error) { return c.apply(waveTag, cy.wave) }, c.baseRules+waveSize, true, cy.probeEP)
	if cy.kind == cycleRollback {
		c.step("rollback", false, c.dp.rollback, c.baseRules, false, cy.probeEP)
	} else {
		c.step("drain", true, func() (int, error) { return c.apply(drainSrc, drainLines) }, c.baseRules, false, cy.probeEP)
	}
}

// step runs one control operation, then the probe whose verdict it set.
// Applies are timed; every step and probe outcome is checked.
func (c *controller) step(name string, timed bool, do func() (int, error), wantRules int, wantDrop bool, ep uint64) {
	c.led.attempted++
	t0, c0 := mono(), cpuNow(clockProcessCPU)
	rules, err := do()
	t1, c1 := mono(), cpuNow(clockProcessCPU)
	switch {
	case timed && c.dp != nil:
		c.publish.add(t1 - t0)
	case timed:
		c.publish.add(c1 - c0)
	}
	if c.spans != nil {
		c.spans.add(name, t0, t1, 0, int64(c.next-1))
	}
	if err != nil {
		c.led.fail("cycle=%d %s: %v", c.next-1, name, err)
		return
	}
	if rules != wantRules {
		c.led.fail("cycle=%d %s: %d rules live, want %d", c.next-1, name, rules, wantRules)
	}
	perr := c.probeOpen(ep)
	if dropped := errors.Is(perr, kernel.ErrPFDenied); dropped != wantDrop || (perr != nil && !dropped) {
		c.led.fail("cycle=%d %s: stale probe verdict at entrypoint 0x%x: %v (want drop=%t)", c.next-1, name, ep, perr, wantDrop)
	}
}

// reloadLines is a full reload as one batch: flush, then the whole base.
func (d *deployment) reloadLines() []string {
	return append([]string{"pftables -F"}, d.base...)
}

func (c *controller) probeOpen(ep uint64) error {
	p := c.d.probe
	if err := p.SyscallSite(programs.BinBash, ep); err != nil {
		return err
	}
	fd, err := p.Open(probePath, kernel.O_RDONLY, 0)
	if err != nil {
		return err
	}
	return p.Close(fd)
}
