package pf

import (
	"sort"
	"sync"
	"sync/atomic"

	"pfirewall/internal/mac"
	"pfirewall/internal/obs"
	"pfirewall/internal/ustack"
)

// Config selects the engine optimizations, matching the columns of the
// paper's Table 6 microbenchmarks:
//
//	FULL     — Config{} (no optimizations)
//	CONCACHE — Config{CtxCache: true}
//	LAZYCON  — Config{CtxCache: true, LazyCtx: true}
//	EPTSPC   — Config{CtxCache: true, LazyCtx: true, EptChains: true}
type Config struct {
	// CtxCache caches collected context (entrypoints) across the multiple
	// resource requests of one system call (paper Section 4.2).
	CtxCache bool
	// LazyCtx collects a context field only when a rule under evaluation
	// needs it, instead of collecting everything at hook entry.
	LazyCtx bool
	// EptChains indexes entrypoint-bearing rules into per-entrypoint
	// chains so only applicable rules are traversed (paper Section 4.3).
	EptChains bool
	// RuleIndex compiles each built-in chain's generic rules into an
	// (op, subject-SID) dispatch index at publish time, so per-request cost
	// scales with the number of possibly-matching rules rather than the
	// total rule count. Goes beyond the paper's EPTSPC: entrypoint rules
	// were already indexed; this indexes everything else.
	RuleIndex bool
	// FullRecompile forces every publish to rebuild the dispatch index from
	// scratch instead of patching the previous snapshot's. Incremental
	// publish is always verdict-identical (the differential tests prove it);
	// this exists as the benchmark baseline and a diagnostic escape hatch.
	FullRecompile bool
}

// Optimized returns the fully optimized configuration (the deployment mode).
func Optimized() Config {
	return Config{CtxCache: true, LazyCtx: true, EptChains: true, RuleIndex: true}
}

// Stats counts engine activity; read by benchmarks and tests. Counters are
// batched per request and sharded by pid, so concurrent processes can be
// filtered in parallel without cache-line contention.
type Stats struct {
	Requests       Counter
	Accepts        Counter
	Drops          Counter
	RulesEvaluated Counter
	CtxCollections Counter
	CtxCacheHits   Counter
}

// Chain is an ordered rule list. Built-in chains are "input" (resource
// accesses and signal delivery) and "syscallbegin" (evaluated at syscall
// entry, used by rule R12); others are user-defined jump targets.
type Chain struct {
	Name  string
	Rules []*Rule
	// Traversals counts entries into this chain (initial dispatch and
	// jumps). Like Rule.Hits it is shared across copy-on-write ruleset
	// snapshots, so counts survive rule updates.
	Traversals *Counter
	// generic holds the traversal list when entrypoint rules are indexed
	// out of the chain: only rules without an entrypoint remain, so the
	// per-request scan never touches inapplicable entrypoint rules.
	generic []*Rule
}

// newChain builds a chain with its traversal counter armed.
func newChain(name string) *Chain {
	return &Chain{Name: name, Traversals: &Counter{}}
}

// traversalRules returns the list Filter walks for this chain.
func (c *Chain) traversalRules(indexed bool) []*Rule {
	if indexed && (c.Name == "input" || c.Name == "syscallbegin") {
		return c.generic
	}
	return c.Rules
}

// clone returns a shallow-rule deep-slice copy for copy-on-write updates.
func (c *Chain) clone() *Chain {
	n := &Chain{Name: c.Name, Traversals: c.Traversals}
	n.Rules = append([]*Rule(nil), c.Rules...)
	n.generic = append([]*Rule(nil), c.generic...)
	return n
}

// entryKey indexes entrypoint-specific chains. The chain is part of the
// key so input-chain rules never run from the syscallbegin hook.
type entryKey struct {
	chain   string
	program string
	off     uint64
}

// ruleset is an immutable snapshot of the installed rules. The filter path
// reads it through an atomic pointer with no locking — the same
// read-copy-update discipline in-kernel packet filters use so rule updates
// never stall the hot path (and so the engine stays re-entrant and
// preemptible, paper Section 5.1).
type ruleset struct {
	chains      map[string]*Chain
	eptIndex    map[entryKey][]*Rule
	eptPrograms map[string]bool
	hasEptRules bool
	allNeeds    CtxKind
	totalRules  int
	// opsPresent has bit op set when some installed rule could apply to
	// op (a rule with an empty op set applies to every op). The kernel
	// consults it through MayFilter to skip request construction entirely
	// for operations no rule mediates.
	opsPresent uint32
	// compiled holds the per-chain dispatch indexes when Config.RuleIndex
	// is set; nil otherwise. Derived incrementally from the previous
	// snapshot's on publish (or rebuilt from scratch, see compile.go) and
	// then as immutable as the rest of the snapshot.
	compiled map[string]*chainIndex
	// gen identifies this snapshot. Generations are globally unique (drawn
	// from rulesetGen), so per-process caches keyed on gen can never alias
	// a snapshot of a different engine.
	gen uint64
	// version is this snapshot's position in the engine's publish sequence,
	// monotonic per engine. Unlike gen it is stable across rollback: rolling
	// back re-exposes the old snapshot with its old version, so control-plane
	// clients can tell exactly which ruleset is enforcing.
	version uint64
}

// rulesetGen issues snapshot generations; see ruleset.gen.
var rulesetGen atomic.Uint64

// clone returns a shallow copy for transactional copy-on-write updates:
// the chains map is copied but the *Chain values, entrypoint-index slices,
// and compiled buckets stay shared with rs until a Tx mutation owns them
// (DESIGN.md §12). Cloning is therefore O(chains), not O(rules) — what keeps
// a one-rule publish cheap at 10k rules.
func (rs *ruleset) clone() *ruleset {
	n := &ruleset{
		chains:      make(map[string]*Chain, len(rs.chains)),
		eptIndex:    rs.eptIndex,
		eptPrograms: rs.eptPrograms,
		hasEptRules: rs.hasEptRules,
		allNeeds:    rs.allNeeds,
		totalRules:  rs.totalRules,
		opsPresent:  rs.opsPresent,
	}
	for name, c := range rs.chains {
		n.chains[name] = c
	}
	// compiled is intentionally not copied: publish derives it after the
	// mutation, and gen/version are reissued at publish time.
	return n
}

// Engine is the Process Firewall proper: the rule base plus the context
// machinery. One engine serves the whole system, like the in-kernel
// firewall; per-process state lives in ProcState.
type Engine struct {
	policy *mac.Policy
	cfg    Config

	// writeMu serializes rule-base writers; readers go through rs.
	writeMu sync.Mutex
	rs      atomic.Pointer[ruleset]

	// Control-plane state, all under writeMu (see tx.go): versionCtr issues
	// snapshot versions; history is the rollback ring of previously
	// published snapshots; forceFull makes the next publish renumber order
	// keys from scratch (set by Rollback, whose restored snapshot may
	// predate a renumbering).
	versionCtr uint64
	history    []*ruleset
	forceFull  bool

	// Publish-path counters (PublishStats); written under writeMu, read
	// lock-free by benchmarks and the control plane.
	publishes     atomic.Uint64
	fullCompiles  atomic.Uint64
	deltaCompiles atomic.Uint64
	rollbacks     atomic.Uint64

	// Log receives the LOG target's records, one span per logged access
	// (paper Section 5.2: the LOG target "logs a variety of information
	// about the current resource access in JSON format"); nil discards
	// them. Its verdict filter applies: a DROP-only ring is a pure denial
	// log.
	Log *obs.SpanRing
	// LogDenials additionally logs every DROP verdict into Log, the denial
	// log the paper's operators review ("we noticed it later in our denial
	// logs", Section 6.1.2).
	LogDenials bool

	Stats Stats

	// obs is the attached observability instrumentation; nil (the default)
	// costs the hot path one predictable branch. See AttachObs.
	obs atomic.Pointer[engineObs]
}

// New creates an engine over policy with the given optimization config.
func New(policy *mac.Policy, cfg Config) *Engine {
	e := &Engine{policy: policy, cfg: cfg}
	rs := &ruleset{
		chains: map[string]*Chain{
			"input":        newChain("input"),
			"syscallbegin": newChain("syscallbegin"),
			// The mangle table's built-in chain runs before filter/input,
			// mirroring iptables table precedence (paper Table 3 lists
			// tables [filter | mangle]). Mangle rules typically carry
			// side-effecting targets (STATE, LOG) rather than verdicts.
			"mangle/input": newChain("mangle/input"),
		},
		eptIndex:    make(map[entryKey][]*Rule),
		eptPrograms: make(map[string]bool),
		gen:         rulesetGen.Add(1),
		version:     1,
	}
	e.versionCtr = 1
	if cfg.RuleIndex {
		rs.compiled = compileRuleset(rs, cfg)
	}
	e.rs.Store(rs)
	return e
}

// Policy returns the MAC policy the engine consults for adversary context.
func (e *Engine) Policy() *mac.Policy { return e.policy }

// Config returns the engine's optimization configuration.
func (e *Engine) Config() Config { return e.cfg }

// NewChain creates a user-defined chain.
func (e *Engine) NewChain(name string) error {
	return e.Transaction(func(tx *Tx) error { return tx.NewChain(name) })
}

// Chain returns a chain snapshot by name. The returned chain is part of an
// immutable snapshot: inspect it, but install rules through the engine.
func (e *Engine) Chain(name string) (*Chain, bool) {
	c, ok := e.rs.Load().chains[name]
	return c, ok
}

// Chains returns the chain names in sorted order.
func (e *Engine) Chains() []string {
	rs := e.rs.Load()
	out := make([]string, 0, len(rs.chains))
	for n := range rs.chains {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Append adds a rule at the end of chain (pftables -A semantics; the
// paper's listings use -I, which prepends — see Insert).
func (e *Engine) Append(chain string, r *Rule) error {
	return e.Transaction(func(tx *Tx) error { return tx.Append(chain, r) })
}

// Insert adds a rule at the head of chain (pftables -I).
func (e *Engine) Insert(chain string, r *Rule) error {
	return e.Transaction(func(tx *Tx) error { return tx.Insert(chain, r) })
}

// Remove deletes the first rule in chain for which match returns true,
// repairing the generic list and the entrypoint index.
func (e *Engine) Remove(chain string, match func(*Rule) bool) error {
	return e.Transaction(func(tx *Tx) error { return tx.Remove(chain, match) })
}

// Flush removes all rules from every chain.
func (e *Engine) Flush() error {
	return e.Transaction(func(tx *Tx) error { tx.Flush(); return nil })
}

// opsMaskOf returns the opsPresent contribution of one rule: its explicit
// op set, or every operation when the rule omits -o. The union is taken
// over every chain (not just the one dispatched for an op) because jumps
// can route any built-in chain's traversal through user chains.
func opsMaskOf(r *Rule) uint32 {
	if r.Ops == 0 {
		return ^uint32(0)
	}
	return uint32(r.Ops)
}

// MayFilter reports whether any installed rule could apply to op. A false
// answer is a guarantee: Filter would return the default accept without
// consulting any context, so the caller may skip building the request
// entirely. The kernel uses this as its pre-mediation mask; rule updates
// publish a new snapshot and naturally refresh the answer.
func (e *Engine) MayFilter(op Op) bool {
	return e.rs.Load().opsPresent&(1<<op) != 0
}

// RuleCount returns the total number of installed rules.
func (e *Engine) RuleCount() int { return e.rs.Load().totalRules }

// Filter evaluates req against the rule base and returns the verdict.
// This is the PF hook body of paper Figure 3: find the next rule, match it
// against the packet, run its target, until a verdict or the default allow.
// The read path takes no locks: the rule base is an immutable snapshot.
// Filter is a one-request batch; multi-request gauntlets (pathname walks,
// send/recv bursts) use StartBatch directly to amortize setup. The Batch
// value stays on the caller's stack, so the whole steady-state path
// allocates nothing.
func (e *Engine) Filter(req *Request) Verdict {
	var b Batch
	e.StartBatch(&b, req.Proc)
	v := b.Filter(req)
	b.Finish()
	return v
}

// mayMatchEpt reports whether any of proc's executable mappings is named
// by an indexed entrypoint rule. Interpreter processes always may match,
// since script-frame entrypoints are not mappings. The answer is a pure
// function of (address space contents, installed rules), so it is memoized
// in the process's PFState keyed on the mapping generation and the ruleset
// generation — an mmap/execve or a rule update each bump their counter and
// naturally invalidate the memo.
func mayMatchEpt(rs *ruleset, p Process) bool {
	if lang, _ := p.Interp(); lang != 0 {
		return true
	}
	as := p.AddrSpace()
	ps := p.PFState()
	mapGen := as.Gen()
	if ps.eptMemoValid && ps.eptMemoMapGen == mapGen && ps.eptMemoRSGen == rs.gen {
		return ps.eptMemoMayMatch
	}
	found := false
	as.ForEach(func(m ustack.Mapping) bool {
		if rs.eptPrograms[m.Path] {
			found = true
			return false
		}
		return true
	})
	ps.eptMemoMayMatch = found
	ps.eptMemoMapGen = mapGen
	ps.eptMemoRSGen = rs.gen
	ps.eptMemoValid = true
	return found
}

// runChain evaluates one built-in chain for the request, through the
// compiled dispatch index when the snapshot carries one for this chain and
// linear traversal otherwise. Verdict, hit-counter, and LOG behavior are
// identical either way; only the number of rules inspected differs.
func (e *Engine) runChain(ctx *EvalCtx, rs *ruleset, c *Chain, skipEpt bool) Action {
	if c == nil {
		return Continue
	}
	if rs.compiled != nil {
		if ci := rs.compiled[c.Name]; ci != nil {
			return e.dispatch(ctx, rs, ci)
		}
	}
	return e.traverse(ctx, rs, c, skipEpt)
}

// traverse walks a chain (honoring jumps) using the per-process traversal
// stack. skipEpt omits entrypoint rules in built-in chains (they are
// handled by the entrypoint index).
func (e *Engine) traverse(ctx *EvalCtx, rs *ruleset, start *Chain, skipEpt bool) Action {
	return e.traverseFrom(ctx, rs, start, 0, skipEpt, true)
}

// traverseFrom is traverse starting at rule index from within start's
// traversal list. countEntry controls whether entering start increments its
// Traversals counter: the compiled dispatch path has already counted the
// chain entry when it falls back here, and must not count it twice.
func (e *Engine) traverseFrom(ctx *EvalCtx, rs *ruleset, start *Chain, from int, skipEpt bool, countEntry bool) Action {
	ps := ctx.Req.Proc.PFState()
	pid := ctx.Req.Proc.PID()
	// Per-process traversal state (paper Section 5.1): we reuse the
	// process's stack buffer; a re-entrant call simply appends deeper
	// frames and unwinds them before returning.
	base := len(ps.traversal)
	ps.traversal = append(ps.traversal, traversalFrame{chain: start, index: from})
	defer func() { ps.traversal = ps.traversal[:base] }()
	if countEntry && start.Traversals != nil {
		start.Traversals.Add(pid, 1)
	}

	for len(ps.traversal) > base {
		top := &ps.traversal[len(ps.traversal)-1]
		rules := top.chain.traversalRules(skipEpt)
		if top.index >= len(rules) {
			ps.traversal = ps.traversal[:len(ps.traversal)-1]
			continue
		}
		r := rules[top.index]
		top.index++
		act := e.evalRule(ctx, r)
		if act.Final {
			return act
		}
		if act.Return {
			// Pop back to the calling chain (no-op at the base chain).
			ps.traversal = ps.traversal[:len(ps.traversal)-1]
			continue
		}
		if act.Jump != "" {
			if c, exists := rs.chains[act.Jump]; exists {
				ps.traversal = append(ps.traversal, traversalFrame{chain: c, index: 0})
				if c.Traversals != nil {
					c.Traversals.Add(pid, 1)
				}
				if sp := ctx.Req.Span; sp != nil {
					sp.PushChain(c.Name)
				}
			}
		}
	}
	return Continue
}

// evalRule matches one rule and fires its target on success.
func (e *Engine) evalRule(ctx *EvalCtx, r *Rule) Action {
	ctx.rulesEvaluated++
	if !r.matchesDefaults(ctx) {
		return Continue
	}
	for _, m := range r.Matches {
		ctx.Require(m.Needs())
		if !m.Match(ctx) {
			return Continue
		}
	}
	r.Hits.Add(1)
	ctx.Require(r.Target.Needs())
	act := r.Target.Fire(ctx)
	if act.Final {
		if sp := ctx.Req.Span; sp != nil {
			sp.Flags |= obs.SpanRuleDecided
			sp.RuleFile = r.Src.File
			sp.RuleLine = int32(r.Src.Line)
			sp.RuleCol = int32(r.Src.Col)
			sp.RuleTarget = r.Target.TargetName()
		}
	}
	return act
}

// emitLog records the current access into the engine's Log ring: the
// shared span fields plus what LOG consumers key on — the innermost
// entrypoint, the adversary bits and the prefix. The span is a stack
// local copied into the ring, so logging allocates nothing.
func (e *Engine) emitLog(ctx *EvalCtx, prefix string, v Verdict) {
	ring := e.Log
	if ring == nil || !ring.Wants(v.String()) {
		return
	}
	req := ctx.Req
	if ob := e.obs.Load(); ob != nil {
		ob.logEmissions.Add(req.Proc.PID(), 1)
	}
	var sp obs.Span
	fillSpan(&sp, e.policy.SIDs(), req, v, ctx.rs.version)
	sp.Prefix = prefix
	if entries, _ := ctx.Entrypoints(); len(entries) > 0 {
		sp.Program, sp.Entrypoint = entries[0].Path, entries[0].Off
	}
	if ctx.AdversaryWritable() {
		sp.Flags |= obs.SpanAdvWrite
	}
	if ctx.AdversaryReadable() {
		sp.Flags |= obs.SpanAdvRead
	}
	ring.Record(&sp)
}
