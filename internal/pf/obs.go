package pf

import (
	"pfirewall/internal/mac"
	"pfirewall/internal/obs"
)

// ObsConfig tunes the engine's observability instrumentation.
type ObsConfig struct {
	// SampleEvery takes one gauntlet-latency sample per SampleEvery
	// requests per shard (default 16; 1 samples every request). Counters
	// are always exact — only the two timestamps per request are sampled,
	// which is what keeps enabled-metrics overhead inside the ≤5% budget.
	SampleEvery int
}

// flightCap is the capacity of the DROP flight recorder. Only DROPs are
// recorded: accepts dominate by orders of magnitude and would only evict
// each other, while the DROPs are what an operator reviews.
const flightCap = 256

// engineObs is the engine's attached instrumentation. Every series is
// pre-registered and indexed directly by Op, so the Filter hot path does
// no map lookups and no locking — one atomic pointer load decides whether
// any of this runs at all.
type engineObs struct {
	reg *obs.Registry
	// sampleMask gates latency timestamps against the requester's
	// Stats.Requests shard — a counter Filter increments regardless, so the
	// sampling decision costs one load, not an extra read-modify-write.
	sampleMask uint64

	mediations [opCount][2]*obs.Counter // [op][verdict]
	latency    [opCount]*obs.Histogram

	logEmissions *obs.Counter
	drops        *obs.SpanRing
	sids         *mac.SIDTable // resolves the drop records' labels
}

// AttachObs registers the engine's metric series on reg and arms the
// Filter instrumentation. Idempotent per registry (series registration
// dedupes); the hot path notices the attachment through one atomic load.
func (e *Engine) AttachObs(reg *obs.Registry, cfg ObsConfig) {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 16
	}
	ob := &engineObs{
		reg:        reg,
		sampleMask: obs.SampleMask(cfg.SampleEvery),
		sids:       e.policy.SIDs(),
	}
	const medHelp = "Mediation requests by operation and verdict."
	for op := Op(1); op < opCount; op++ {
		name := op.String()
		ob.mediations[op][VerdictAccept] = reg.Counter("pf_mediations_total", medHelp,
			obs.L("op", name), obs.L("verdict", VerdictAccept.String()))
		ob.mediations[op][VerdictDrop] = reg.Counter("pf_mediations_total", medHelp,
			obs.L("op", name), obs.L("verdict", VerdictDrop.String()))
		ob.latency[op] = reg.Histogram("pf_gauntlet_latency_ns",
			"Sampled PF gauntlet latency per operation, in nanoseconds.",
			obs.L("op", name))
	}
	ob.logEmissions = reg.Counter("pf_log_emissions_total", "LOG-target records emitted.")
	ob.drops = reg.SpanRing("pf_flight_drop", flightCap, VerdictDrop.String())

	// Engine totals are already counted exactly by Stats; export them
	// rather than double-counting on the hot path.
	reg.CounterFunc("pf_requests_total", "Requests filtered.", e.Stats.Requests.Load)
	reg.CounterFunc("pf_verdicts_total", "Verdicts by outcome.",
		e.Stats.Accepts.Load, obs.L("verdict", VerdictAccept.String()))
	reg.CounterFunc("pf_verdicts_total", "Verdicts by outcome.",
		e.Stats.Drops.Load, obs.L("verdict", VerdictDrop.String()))
	reg.CounterFunc("pf_rules_evaluated_total", "Rules evaluated across all requests.", e.Stats.RulesEvaluated.Load)
	reg.CounterFunc("pf_ctx_collections_total", "Context fields collected.", e.Stats.CtxCollections.Load)
	reg.CounterFunc("pf_ctx_cache_hits_total", "Context cache hits.", e.Stats.CtxCacheHits.Load)

	e.obs.Store(ob)
	// Per-chain traversal counts. The Traversals counter is shared across
	// ruleset snapshots (like Rule.Hits), so capturing it here stays
	// correct over later rule updates.
	for _, name := range e.Chains() {
		e.registerChainObs(name)
	}
}

// Obs returns the attached registry; nil when observability is off.
func (e *Engine) Obs() *obs.Registry {
	if ob := e.obs.Load(); ob != nil {
		return ob.reg
	}
	return nil
}

// registerChainObs exports one chain's traversal counter.
func (e *Engine) registerChainObs(name string) {
	ob := e.obs.Load()
	if ob == nil {
		return
	}
	c, okc := e.Chain(name)
	if !okc || c.Traversals == nil {
		return
	}
	ob.reg.CounterFunc("pf_chain_traversals_total", "Chain traversals by chain.",
		c.Traversals.Load, obs.L("chain", name))
}

// finish flushes one request's obs series. t0 is meaningful only when
// sampled is true; chain is the start chain ("" on the empty-ruleset fast
// path); version is the deciding snapshot's publish version.
func (ob *engineObs) finish(pid int, req *Request, v Verdict, sampled bool, t0 int64, chain string, version uint64) {
	op := req.Op
	if op >= opCount {
		op = OpInvalid
	}
	vi := 0
	if v == VerdictDrop {
		vi = 1
	}
	if c := ob.mediations[op][vi]; c != nil {
		c.Add(pid, 1)
	}
	if sampled {
		if h := ob.latency[op]; h != nil {
			h.Observe(pid, uint64(obs.MonoNow()-t0))
		}
	}
	if v == VerdictDrop {
		ob.recordDrop(req, chain, version)
	}
}

// recordDrop fills a span for a DROP into the flight recorder. Kept out of
// finish so the span is not part of the accept path's stack frame.
func (ob *engineObs) recordDrop(req *Request, chain string, version uint64) {
	var sp obs.Span
	fillSpan(&sp, ob.sids, req, VerdictDrop, version)
	if chain != "" {
		sp.PushChain(chain)
	}
	ob.drops.Record(&sp)
}

// fillSpan stamps the record fields every engine-filled span shares: time,
// identity, labels, verdict and the deciding snapshot's version. Every
// string is interned or pre-existing, so it allocates nothing.
func fillSpan(sp *obs.Span, sids *mac.SIDTable, req *Request, v Verdict, version uint64) {
	sp.TimeUnixNano = obs.WallNano(obs.MonoNow())
	sp.PID = req.Proc.PID()
	sp.Op = req.Op.String() //pflint:allow — the Sprintf fallback formats only ops outside the name table, which never reach Filter
	sp.Verdict = v.String()
	sp.Version = version
	sp.Subject = string(sids.Label(req.Proc.SubjectSID()))
	if req.Obj != nil {
		sp.Object = string(sids.Label(req.Obj.SID()))
		sp.Path = req.Obj.Path()
	}
}
