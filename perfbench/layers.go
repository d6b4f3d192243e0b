package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"pfirewall/internal/kernel"
	"pfirewall/internal/obs"
	"pfirewall/internal/pf"
	"pfirewall/internal/pfcheck"
	"pfirewall/internal/pftables"
	"pfirewall/internal/pfverify"
	"pfirewall/internal/policyd"
	"pfirewall/internal/ustack"
	"pfirewall/internal/vfs"
)

// The traced run measures each layer from outside: counters the layers
// already keep, the kernel's provenance spans (kernel.AttachObs tracing
// every syscall, drained by one subscriber), and replays that time calls
// into a layer's own entry points. It runs the data client twice — an
// untraced stretch for the counters, allocations and persona latencies,
// then a traced one for the spans — and replays after both.

const (
	phaseShare  = 0.4     // of -seconds, for each of the two data-client stretches
	replayShare = 0.1     // of -seconds, the gate replay's budget
	spanBuf     = 1 << 14 // subscriber buffer: a burst of syscalls outruns the drainer briefly
	keptSpans   = 4096    // kernel spans written to the span file
	loggedOps   = 1 << 13 // harness op spans written to the span file
	replayCalls = 1 << 14 // calls per vfs and unwind replay
)

// counters snapshots the layers' own counters and the Go runtime's.
type counters struct {
	syscalls, mediations                          uint64
	requests, drops, rulesEval, ctxColl, ctxHits  uint64
	resolutions, dcHits, dcMisses, advHits, advMs uint64
	mallocs, bytes                                uint64
	gcs                                           uint32
}

func readCounters(d *deployment) counters {
	k, st := d.w.K, &d.w.Engine.Stats
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		syscalls: k.SyscallCount.Load(), mediations: k.MediationCount.Load(),
		requests: st.Requests.Load(), drops: st.Drops.Load(), rulesEval: st.RulesEvaluated.Load(),
		ctxColl: st.CtxCollections.Load(), ctxHits: st.CtxCacheHits.Load(),
		resolutions: k.FS.Resolutions.Load(), dcHits: k.FS.DcacheHits.Load(), dcMisses: k.FS.DcacheMisses.Load(),
		advHits: k.Policy.AdvCacheHits.Load(), advMs: k.Policy.AdvCacheMisses.Load(),
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC,
	}
}

// spanAgg digests the kernel's span stream on the drainer goroutine.
type spanAgg struct {
	kernel, check, gauntlet *recorder
	eptHits, eptUnwinds     uint64
	kept                    []obs.Span
}

func newSpanAgg() *spanAgg {
	return &spanAgg{
		kernel: newRecorder(1 << 20), check: newRecorder(1 << 20), gauntlet: newRecorder(1 << 20),
		kept: make([]obs.Span, 0, keptSpans),
	}
}

func (a *spanAgg) add(sp *obs.Span) {
	a.kernel.add(int64(sp.KernelNs))
	a.gauntlet.add(int64(sp.GauntletNs))
	// CheckNs is zero when the request reached the firewall without a
	// DAC/MAC check ahead of it (fd-based syscalls, IPC).
	if sp.CheckNs > 0 {
		a.check.add(int64(sp.CheckNs))
	}
	if sp.Flags&obs.SpanEptCacheHit != 0 {
		a.eptHits++
	}
	if sp.Flags&obs.SpanEptUnwound != 0 {
		a.eptUnwinds++
	}
	if len(a.kept) < cap(a.kept) {
		a.kept = append(a.kept, *sp)
	}
}

// benchSpan is one harness span: a client op, a control step, or a layer
// replay. Start and end are obs.MonoNow stamps; the kernel spans' Unix
// stamps are obs.WallNano of the same clock.
type benchSpan struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog holds harness spans in storage allocated before timing; spans
// past its capacity are not kept.
type spanLog struct {
	spans  []benchSpan
	idBase int64
}

func newSpanLog(capacity int, idBase int64) *spanLog {
	return &spanLog{spans: make([]benchSpan, 0, capacity), idBase: idBase}
}

// add records a span and returns its id (0 when the log is full).
func (l *spanLog) add(name string, start, end, parent, op int64) int64 {
	if len(l.spans) == cap(l.spans) {
		return 0
	}
	id := l.idBase + int64(len(l.spans)) + 1
	l.spans = append(l.spans, benchSpan{Name: name, ID: id, Parent: parent, Op: op, Start: start, End: end})
	return id
}

// setEnd closes a span opened with end 0.
func (l *spanLog) setEnd(id, end int64) {
	if i := id - l.idBase - 1; id != 0 && i < int64(len(l.spans)) {
		l.spans[i].End = end
	}
}

// timed runs f as a child span of parent in the replay log and returns its
// duration.
func (l *spanLog) timed(name string, parent, op int64, f func()) int64 {
	t0 := mono()
	f()
	t1 := mono()
	l.add(name, t0, t1, parent, op)
	return t1 - t0
}

func traced(p params, d *deployment, ops []op, cycles []cycle) (*report, error) {
	rep := &report{}
	k := d.w.K
	phaseNs := int64(p.seconds * phaseShare * 1e9)
	ctl := d.controller(cycles)

	// Untraced stretch.
	ph1 := newPhase(p.seconds)
	for i := range ph1.personas {
		ph1.personas[i] = newRecorder(1 << 16)
	}
	c0 := readCounters(d)
	deadline := mono() + phaseNs
	wait := d.startChurn(ctl, deadline)
	d.drive(ops, 0, deadline, ph1)
	wait()
	c1 := readCounters(d)

	// Traced stretch: every syscall traced, one subscriber drained.
	k.AttachObs(obs.New(), kernel.ObsConfig{TraceEvery: 1})
	tr := k.Tracer()
	muteDaemons(k, tr)
	sub := tr.SubscribeBuf(spanBuf)
	agg := newSpanAgg()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for sp := range sub.C() {
			agg.add(&sp)
		}
	}()
	ph2 := newPhase(p.seconds)
	ph2.spans = newSpanLog(loggedOps, 0)
	ctl.spans = newSpanLog(1<<12, 1<<40)
	deadline = mono() + phaseNs
	wait = d.startChurn(ctl, deadline)
	d.drive(ops, ph1.next, deadline, ph2)
	wait()
	tr.Unsubscribe(sub)
	<-drained
	rep.count(&ph1.led)
	rep.count(&ph2.led)
	rep.count(&ctl.led)

	// Replays.
	rl := newSpanLog(1<<12, 2<<40)
	var led ledger
	resolve := d.replayResolve(ops, rl)
	unwind := d.replayUnwind(rl)
	personas := ph1.personas
	if d.web == nil {
		personas = d.replayPersonas(rl, &led)
	}
	twin, err := d.twin()
	if err != nil {
		return nil, err
	}
	bs := batches(cycles, d.baseSrc, d.reloadLines())
	analyze, refines := d.replayGates(twin, bs, int64(p.seconds*replayShare*1e9), rl, &led)
	commit, deltaRatio := d.replayCommits(twin, bs, rl, &led)
	transport := d.replayTransport(twin, ctl, bs, rl, &led)
	rep.count(&led)
	d.checkConservation(rep)

	n := float64(ph1.ops)
	per := func(a, b uint64) float64 { return float64(a-b) / n }
	p50 := func(r *recorder) float64 { return r.quantiles(0.5)[0] }
	q1, _, _ := ph1.summary()
	q2, _, _ := ph2.summary()
	gq := agg.gauntlet.quantiles(0.5, 0.99)
	rq := resolve.quantiles(0.5, 0.99)
	ops1 := ph1.ops
	spansN := int64(agg.kernel.total)

	rep.add("kernel.syscalls_per_op", "count", per(c1.syscalls, c0.syscalls), ops1)
	rep.add("kernel.mediations_per_op", "count", per(c1.mediations, c0.mediations), ops1)
	rep.add("kernel.self_ns_p50", "ns", p50(agg.kernel), spansN)
	rep.add("go.allocs_per_op", "count", per(c1.mallocs, c0.mallocs), ops1)
	rep.add("go.bytes_per_op", "B", per(c1.bytes, c0.bytes), ops1)
	rep.add("go.gc_cycles", "count", float64(c1.gcs-c0.gcs), ops1)
	rep.add("pf.requests_per_op", "count", per(c1.requests, c0.requests), ops1)
	rep.add("pf.rules_evaluated_per_request", "count", ratio(c1.rulesEval-c0.rulesEval, c1.requests-c0.requests), int64(c1.requests-c0.requests))
	rep.add("pf.gauntlet_ns_p50", "ns", gq[0], spansN)
	rep.add("pf.gauntlet_ns_p99", "ns", gq[1], spansN)
	ctxN := (c1.ctxHits - c0.ctxHits) + (c1.ctxColl - c0.ctxColl)
	rep.add("pf.ctx_cache_hit_ratio", "ratio", ratio(c1.ctxHits-c0.ctxHits, ctxN), int64(ctxN))
	rep.add("pf.drop_ratio", "ratio", ratio(c1.drops-c0.drops, c1.requests-c0.requests), int64(c1.requests-c0.requests))
	rep.add("vfs.resolutions_per_op", "count", per(c1.resolutions, c0.resolutions), ops1)
	dcN := (c1.dcHits - c0.dcHits) + (c1.dcMisses - c0.dcMisses)
	rep.add("vfs.dcache_hit_ratio", "ratio", ratio(c1.dcHits-c0.dcHits, dcN), int64(dcN))
	rep.add("vfs.resolve_ns_p50", "ns", rq[0], resolve.total)
	rep.add("vfs.resolve_ns_p99", "ns", rq[1], resolve.total)
	rep.add("mac.check_ns_p50", "ns", p50(agg.check), agg.check.total)
	advN := (c1.advHits - c0.advHits) + (c1.advMs - c0.advMs)
	rep.add("mac.adv_cache_hit_ratio", "ratio", ratio(c1.advHits-c0.advHits, advN), int64(advN))
	rep.add("ustack.ept_cache_hit_ratio", "ratio", ratio(agg.eptHits, agg.eptHits+agg.eptUnwinds), int64(agg.eptHits+agg.eptUnwinds))
	rep.add("ustack.unwind_ns_p50", "ns", p50(unwind), unwind.total)
	rep.add("programs.apache_serve_us_p50", "us", p50(personas[personaApache])/1e3, personas[personaApache].total)
	rep.add("programs.php_include_us_p50", "us", p50(personas[personaPHP])/1e3, personas[personaPHP].total)
	rep.add("programs.sshd_login_us_p50", "us", p50(personas[personaSshd])/1e3, personas[personaSshd].total)
	rep.add("programs.dbus_roundtrip_us_p50", "us", p50(personas[personaDbus])/1e3, personas[personaDbus].total)
	rep.add("obs.trace_overhead_pct", "%", (q2-q1)/q1*100, ph2.ops)
	rep.add("obs.spans_dropped", "count", float64(tr.Dropped()), spansN)
	rep.add("policyd.transport_us_p50", "us", p50(transport)/1e3, transport.total)
	rep.add("pfcheck.analyze_ms_p50", "ms", p50(analyze)/1e6, analyze.total)
	rep.add("pfverify.refines_ms_p50", "ms", p50(refines)/1e6, refines.total)
	rep.add("pf.commit_us_p50", "us", p50(commit)/1e3, commit.total)
	rep.add("pf.delta_publish_ratio", "ratio", deltaRatio, commit.total)

	path, err := writeSpans(p, []*spanLog{ph2.spans, ctl.spans, rl}, agg.kept)
	if err != nil {
		return nil, err
	}
	rep.spansPath = path
	return rep, nil
}

// policydLabel is the policy daemon's subject label.
const policydLabel = "pfpolicyd_t"

// muteDaemons mutes policyd's processes on tr. policyd mutes them itself
// only on a tracer attached before it starts, and the traced stretch
// attaches one later. Muted before the subscription exists, the daemon's
// own goroutine never publishes into the subscriber's channel:
// Tracer.Unsubscribe closes that channel, and a concurrent Publish to it
// would panic. The ledger's span figures are then the data plane's alone.
func muteDaemons(k *kernel.Kernel, tr *obs.Tracer) {
	for _, p := range k.Procs() {
		if p.Label() == policydLabel {
			tr.Mute(p.PID())
		}
	}
}

// replayResolve times FS.ResolveInto, with no mediator, on the paths the
// workload's operations open.
func (d *deployment) replayResolve(ops []op, rl *spanLog) *recorder {
	paths := make([]string, min(len(ops), replayCalls))
	for i := range paths {
		paths[i] = d.resolvedPath(&ops[i])
	}
	rec := newRecorder(len(paths))
	fs := d.w.K.FS
	var res vfs.Resolved
	opts := vfs.ResolveOpts{FollowFinal: true}
	parent := rl.add("replay.vfs.resolve", mono(), 0, 0, -1)
	for _, path := range paths {
		t0 := mono()
		_ = fs.ResolveInto(&res, fs.Root(), path, opts, nil)
		rec.add(mono() - t0)
	}
	rl.setEnd(parent, mono())
	return rec
}

// replayUnwind times the native and interpreter unwinders on the data
// client's own processes, i.e. stacks of the workload's shape.
func (d *deployment) replayUnwind(rl *spanLog) *recorder {
	procs := []*kernel.Proc{}
	if d.hot != nil {
		procs = append(procs, d.hot.p)
	} else {
		procs = d.web.procs()
	}
	rec := newRecorder(replayCalls)
	parent := rl.add("replay.ustack.unwind", mono(), 0, 0, -1)
	for i := 0; i < replayCalls; i++ {
		p := procs[i%len(procs)]
		t0 := mono()
		_, _ = ustack.UnwindBinary(p.UserMemory(), p.UserRegs(), 0)
		if lang, head := p.Interp(); lang != ustack.LangNative {
			_, _ = ustack.UnwindInterp(lang, p.UserMemory(), head)
		}
		rec.add(mono() - t0)
	}
	rl.setEnd(parent, mono())
	return rec
}

// replayPersonas times the four personas on syscall-hot's world, whose
// data client runs none of them: a page serve, a php include, an sshd
// login and a dbus round trip, each checked.
func (d *deployment) replayPersonas(rl *spanLog, led *ledger) [personaCount]*recorder {
	const calls = 512
	var recs [personaCount]*recorder
	for i := range recs {
		recs[i] = newRecorder(calls)
	}
	wc, err := newWebClient(d.w, "/var/www/html")
	if err != nil {
		led.attempted++
		led.fail("replay.programs: set-up: %v", err)
		return recs
	}
	hd := *d
	hd.web = wc
	replay := []op{{kind: opServe, arg: "/index.html"}, {kind: opInclude, arg: "/var/www/scripts/gcalendar.php"}, {kind: opLogin}, {kind: opBus}}
	parent := rl.add("replay.programs", mono(), 0, 0, -1)
	for i := 0; i < calls*len(replay); i++ {
		o := &replay[i%len(replay)]
		t0 := mono()
		err := hd.exec(o)
		recs[o.kind.persona()].add(mono() - t0)
		led.attempted++
		if why := outcome(o.kind, err); why != "" {
			led.fail("replay.programs %s %q: %s: %v", o.kind, o.arg, why, err)
		}
	}
	rl.setEnd(parent, mono())
	return recs
}

// twin builds a second engine over the same policy with the workload's
// rule base, so control-plane replays never touch the live rule base.
func (d *deployment) twin() (*pf.Engine, error) {
	e := pf.New(d.w.K.Policy, d.w.Engine.Config())
	if _, err := pftables.ApplyAllFrom(d.w.Env, e, d.baseSrc, d.base); err != nil {
		return nil, fmt.Errorf("twin engine: %w", err)
	}
	return e, nil
}

// batch is one control-plane operation; nil lines means a rollback.
type batch struct {
	src   string
	lines []string
}

// batches flattens control cycles into the batch sequence they publish.
func batches(cycles []cycle, reloadSrc string, reload []string) []batch {
	var out []batch
	for _, cy := range cycles {
		switch cy.kind {
		case cycleReload:
			out = append(out, batch{reloadSrc, reload})
		case cycleRollback:
			out = append(out, batch{waveTag, cy.wave}, batch{})
		default:
			out = append(out, batch{waveTag, cy.wave}, batch{drainSrc, drainLines})
		}
	}
	return out
}

func applyBatch(d *deployment, e *pf.Engine, b batch, gate func(map[string]*pf.Chain) error) error {
	if b.lines == nil {
		_, err := e.Rollback()
		return err
	}
	_, err := pftables.ApplyAllGated(d.w.Env, e, b.src, b.lines, gate)
	return err
}

// replayGates times policyd's two publish gates, pfcheck.AnalyzeRuleset
// and pfverify.Refines, on each candidate of the batch sequence applied to
// the twin, until the budget is spent (at least three candidates).
func (d *deployment) replayGates(twin *pf.Engine, bs []batch, budget int64, rl *spanLog, led *ledger) (analyze, refines *recorder) {
	analyze, refines = newRecorder(64), newRecorder(64)
	tbl := d.w.K.Policy.SIDs()
	parent := rl.add("replay.gates", mono(), 0, 0, -1)
	gate := func(chains map[string]*pf.Chain) error {
		analyze.add(rl.timed("pfcheck.AnalyzeRuleset", parent, analyze.total, func() {
			pfcheck.AnalyzeRuleset(tbl, chains, nil)
		}))
		refines.add(rl.timed("pfverify.Refines", parent, refines.total, func() {
			cur := pfverify.FromEngine(twin)
			cand := pfverify.NewEvaluator(d.w.K.Policy, chains, twin.Config())
			pfverify.Refines(cur, cand, tbl, d.invs)
		}))
		return nil
	}
	deadline := mono() + budget
	for i := 0; analyze.total < 64 && (analyze.total < 3 || mono() < deadline); i++ {
		led.attempted++
		if err := applyBatch(d, twin, bs[i%len(bs)], gate); err != nil {
			led.fail("replay.gates batch %d: %v", i, err)
		}
	}
	rl.setEnd(parent, mono())
	return analyze, refines
}

// replayCommits times ungated publishes on the twin and reports the share
// that took the delta-compile path.
func (d *deployment) replayCommits(twin *pf.Engine, bs []batch, rl *spanLog, led *ledger) (*recorder, float64) {
	const calls = 64
	rec := newRecorder(calls)
	st0 := twin.PublishStats()
	parent := rl.add("replay.pf.commit", mono(), 0, 0, -1)
	for i := 0; rec.total < calls; i++ {
		b := bs[i%len(bs)]
		if b.lines == nil {
			_, _ = twin.Rollback()
			continue
		}
		led.attempted++
		var err error
		rec.add(rl.timed("pftables.ApplyAllGated", parent, int64(i), func() { err = applyBatch(d, twin, b, nil) }))
		if err != nil {
			led.fail("replay.pf.commit batch %d: %v", i, err)
		}
	}
	rl.setEnd(parent, mono())
	st1 := twin.PublishStats()
	return rec, ratio(st1.DeltaCompiles-st0.DeltaCompiles, st1.Publishes-st0.Publishes)
}

// replayTransport returns policyd's transport cost (round trip minus the
// server's publish time): policy-churn's own control traffic, or else a
// replay of unchecked batches through a daemon serving the twin.
func (d *deployment) replayTransport(twin *pf.Engine, ctl *controller, bs []batch, rl *spanLog, led *ledger) *recorder {
	if ctl.dp != nil {
		return ctl.dp.transport
	}
	const calls = 48
	rec := newRecorder(calls)
	led.attempted++
	srv, err := policyd.Serve(d.w.K, d.w.Env, twin, "pfbench-replay", nil)
	if err != nil {
		led.fail("replay.policyd: serve: %v", err)
		return rec
	}
	defer srv.Close()
	cl, err := policyd.Dial(d.w.K, "pfbench-replay")
	if err != nil {
		led.fail("replay.policyd: dial: %v", err)
		return rec
	}
	defer cl.Close()
	dp := &daemonPublisher{cl: cl, noCheck: true, transport: rec}
	parent := rl.add("replay.policyd", mono(), 0, 0, -1)
	for i := 0; rec.total < calls; i++ {
		b := bs[i%len(bs)]
		var err error
		rl.timed("policyd.Client.Do", parent, int64(i), func() {
			if b.lines == nil {
				_, err = dp.rollback()
			} else {
				_, err = dp.apply(b.src, b.lines)
			}
		})
		led.attempted++
		if err != nil {
			led.fail("replay.policyd batch %d: %v", i, err)
		}
	}
	rl.setEnd(parent, mono())
	return rec
}

// writeSpans writes the harness spans and the kept kernel spans as JSON
// lines. A kernel span's parent is the harness op or control step whose
// interval holds its publish stamp.
func writeSpans(p params, logs []*spanLog, kernelSpans []obs.Span) (string, error) {
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(p.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", p.workload, p.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type harnessLine struct {
		Kind string `json:"kind"`
		benchSpan
	}
	type kernelLine struct {
		Kind   string    `json:"kind"`
		Parent int64     `json:"parent"`
		Span   *obs.Span `json:"span"`
	}
	var ops []benchSpan // op and control spans, by start, for the parent lookup
	for _, l := range logs {
		for _, s := range l.spans {
			if err := enc.Encode(harnessLine{"harness", s}); err != nil {
				return "", err
			}
			if s.Op >= 0 {
				ops = append(ops, s)
			}
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })
	wall0 := obs.WallNano(0)
	for i := range kernelSpans {
		sp := &kernelSpans[i]
		at := sp.TimeUnixNano - wall0
		var parent int64
		// Data ops are disjoint; a concurrent control step may overlap
		// them, so look back a few spans for the innermost container.
		last := sort.Search(len(ops), func(j int) bool { return ops[j].Start > at }) - 1
		for j := last; j >= 0 && j > last-8; j-- {
			if ops[j].End >= at {
				parent = ops[j].ID
				break
			}
		}
		if err := enc.Encode(kernelLine{"kernel", parent, sp}); err != nil {
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
