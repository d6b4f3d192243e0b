package pf

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"pfirewall/internal/mac"
	"pfirewall/internal/obs"
)

// --- incremental-vs-full differential -----------------------------------
//
// The incremental publish path (patchRuleset) must be observationally
// identical to a from-scratch compile AND to linear traversal over
// arbitrary mutation histories: appends, head inserts, removals,
// replace-by-position, multi-rule transactions, flushes, and rollbacks.
// Three engines — linear, full-recompile, incremental — replay one shared
// mutation/request script; every verdict and every mutation error must
// agree, or first-match semantics drifted somewhere in the bucket surgery.

type mutEngine struct {
	name  string
	e     *Engine
	procs map[int]*fakeProc
}

func newMutEngine(t *testing.T, name string, pol *mac.Policy, cfg Config, userChains []string) *mutEngine {
	t.Helper()
	m := &mutEngine{name: name, e: New(pol, cfg), procs: make(map[int]*fakeProc)}
	for _, uc := range userChains {
		if err := m.e.NewChain(uc); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func (m *mutEngine) proc(t *testing.T, pid int, s mac.SID, ldso bool) *fakeProc {
	if p, ok := m.procs[pid]; ok {
		return p
	}
	p := newFakeProc(pid, s, "/usr/bin/prog")
	if ldso {
		setupLdSo(t, p)
	}
	m.procs[pid] = p
	return p
}

func TestIncrementalPublishDifferential(t *testing.T) {
	pol := testPolicy()
	subjects := []mac.Label{"httpd_t", "user_t", "sshd_t", "shadow_t"}
	objects := []mac.Label{"tmp_t", "lib_t", "etc_t", "shadow_t"}
	ops := []Op{OpFileOpen, OpFileRead, OpFileWrite, OpLnkFileRead, OpDirSearch, OpSocketBind, OpSyscallBegin}
	chains := []string{"input", "input", "syscallbegin", "mangle/input", "u0"}
	userChains := []string{"u0"}

	baseConfigs := []Config{
		{CtxCache: true, LazyCtx: true},
		{CtxCache: true, LazyCtx: true, EptChains: true},
	}

	const iterations = 120
	for iter := 0; iter < iterations; iter++ {
		rng := &diffRNG{s: uint64(iter)*0x9e3779b9 + 7}
		// User-chain rules must not jump (a u0 rule jumping to u0 would
		// cycle); regenerate those specs in no-jump mode.
		genSpec := func(candChains []string) *ruleSpec {
			s := genRuleSpec(rng, pol, candChains, userChains, false)
			if s.chain == "u0" {
				s = genRuleSpec(rng, pol, []string{s.chain}, userChains, true)
			}
			return s
		}
		for _, base := range baseConfigs {
			full := base
			full.RuleIndex = true
			full.FullRecompile = true
			incr := base
			incr.RuleIndex = true
			engines := []*mutEngine{
				newMutEngine(t, "linear", pol, base, userChains),
				newMutEngine(t, "full", pol, full, userChains),
				newMutEngine(t, "incremental", pol, incr, userChains),
			}

			// installed tracks, per engine, the same logical rule at the
			// same slot, so pointer-removals target equivalents everywhere.
			installed := make([][]*Rule, len(engines))
			instChain := []string{}

			// sameOutcome asserts the three engines agreed on success/failure
			// (rollbacks can legitimately fail a mutation — e.g. rolling
			// back past a NewChain — but must do so on every engine).
			sameOutcome := func(step int, what string, errs [3]error) bool {
				if (errs[0] == nil) != (errs[1] == nil) || (errs[0] == nil) != (errs[2] == nil) {
					t.Fatalf("iter %d step %d: %s errors diverge: %v / %v / %v", iter, step, what, errs[0], errs[1], errs[2])
				}
				return errs[0] == nil
			}

			install := func(step int, s *ruleSpec) {
				var errs [3]error
				rules := make([]*Rule, len(engines))
				for ei, m := range engines {
					r := s.build()
					if s.front {
						errs[ei] = m.e.Insert(s.chain, r)
					} else {
						errs[ei] = m.e.Append(s.chain, r)
					}
					rules[ei] = r
				}
				if sameOutcome(step, "install", errs) {
					for ei := range engines {
						installed[ei] = append(installed[ei], rules[ei])
					}
					instChain = append(instChain, s.chain)
				}
			}

			nSteps := 40 + rng.intn(30)
			for step := 0; step < nSteps; step++ {
				switch op := rng.intn(10); {
				case op < 4: // plain install
					install(step, genSpec(chains))

				case op < 6 && len(instChain) > 0: // pointer removal
					k := rng.intn(len(instChain))
					var errs [3]error
					for ei, m := range engines {
						victim := installed[ei][k]
						errs[ei] = m.e.Remove(instChain[k], func(r *Rule) bool { return r == victim })
					}
					sameOutcome(step, "remove", errs)

				case op == 6: // replace-by-position in a built-in chain
					name := compiledChains[rng.intn(len(compiledChains))]
					c, _ := engines[0].e.Chain(name)
					if c == nil || len(c.Rules) == 0 {
						continue
					}
					pos := rng.intn(len(c.Rules))
					s := genSpec([]string{name})
					var errs [3]error
					for ei, m := range engines {
						errs[ei] = m.e.Transaction(func(tx *Tx) error { return tx.ReplaceAt(name, pos, s.build()) })
					}
					sameOutcome(step, "replace", errs)

				case op == 7: // batched transaction: a wave of installs + a tag drain
					n := 2 + rng.intn(4)
					specs := make([]*ruleSpec, n)
					for i := range specs {
						specs[i] = genSpec(chains)
					}
					var errs [3]error
					for ei, m := range engines {
						errs[ei] = m.e.Transaction(func(tx *Tx) error {
							for _, s := range specs {
								r := s.build()
								r.Src = Pos{File: "<wave>", Line: step}
								if err := tx.Append(s.chain, r); err != nil {
									return err
								}
							}
							for _, ch := range []string{"input", "syscallbegin", "mangle/input"} {
								if _, err := tx.RemoveAll(ch, func(r *Rule) bool {
									return r.Src.File == "<wave>" && r.Src.Line < step-2
								}); err != nil {
									return err
								}
							}
							return nil
						})
					}
					sameOutcome(step, "wave tx", errs)

				case op == 8 && rng.intn(3) == 0: // rollback (all engines in lockstep)
					var errs [3]error
					for ei, m := range engines {
						_, errs[ei] = m.e.Rollback()
					}
					sameOutcome(step, "rollback", errs)

				case op == 9 && rng.intn(8) == 0: // rare flush
					for _, m := range engines {
						if err := m.e.Flush(); err != nil {
							t.Fatalf("iter %d %s: flush: %v", iter, m.name, err)
						}
					}
				}

				// A burst of requests after every mutation.
				for q := 0; q < 3; q++ {
					pid := 1 + rng.intn(3)
					subj := sid(pol, subjects[rng.intn(len(subjects))])
					ldso := rng.intn(2) == 0
					reqOp := ops[rng.intn(len(ops))]
					objSID := sid(pol, objects[rng.intn(len(objects))])
					objID := uint64(rng.intn(4))
					var verdicts [3]Verdict
					for ei, m := range engines {
						p := m.proc(t, pid, subj, ldso)
						p.ps.BeginSyscall()
						verdicts[ei] = m.e.Filter(&Request{Proc: p, Op: reqOp, Obj: &fakeRes{sid: objSID, id: objID}})
					}
					if verdicts[0] != verdicts[1] || verdicts[0] != verdicts[2] {
						t.Fatalf("iter %d step %d: verdicts diverge: linear=%v full=%v incremental=%v",
							iter, step, verdicts[0], verdicts[1], verdicts[2])
					}
				}

				// Structural parity: same rule counts everywhere.
				if a, b, c := engines[0].e.RuleCount(), engines[1].e.RuleCount(), engines[2].e.RuleCount(); a != b || a != c {
					t.Fatalf("iter %d step %d: rule counts diverge: %d/%d/%d", iter, step, a, b, c)
				}
			}

			// The incremental engine must actually have taken the delta path.
			if iter == 0 {
				if st := engines[2].e.PublishStats(); st.DeltaCompiles == 0 {
					t.Fatalf("incremental engine never delta-compiled: %+v", st)
				}
			}
		}
	}
}

// --- satellite: one publish per transaction -----------------------------

// TestTransactionSingleRecompile pins the batching contract: however many
// rules a transaction touches, the engine publishes (and recompiles or
// patches) exactly once, bumping the snapshot generation exactly once — so
// per-process caches keyed on the generation are invalidated once per batch,
// not once per rule.
func TestTransactionSingleRecompile(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	httpd := sid(pol, "httpd_t")

	gen0 := e.Generation()
	ver0 := e.Version()
	st0 := e.PublishStats()

	var batch []*Rule
	err := e.Transaction(func(tx *Tx) error {
		for i := 0; i < 32; i++ {
			r := &Rule{Subject: NewSIDSet(false, httpd), Ops: NewOpSet(OpFileOpen), Target: Drop()}
			if err := tx.Append("input", r); err != nil {
				return err
			}
			batch = append(batch, r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Generation() - gen0; got != 1 {
		t.Fatalf("32-rule install bumped generation %d times, want 1", got)
	}
	if got := e.Version() - ver0; got != 1 {
		t.Fatalf("32-rule install bumped version %d times, want 1", got)
	}
	st := e.PublishStats()
	if got := st.Publishes - st0.Publishes; got != 1 {
		t.Fatalf("32-rule install published %d times, want 1", got)
	}
	if got := st.FullCompiles - st0.FullCompiles; got != 0 {
		t.Fatalf("32-rule install full-compiled %d times, want 0 (delta path)", got)
	}

	// Batched removal: one generation bump for the whole drain.
	gen1 := e.Generation()
	st1 := e.PublishStats()
	err = e.Transaction(func(tx *Tx) error {
		n, err := tx.RemoveAll("input", func(r *Rule) bool { return true })
		if err != nil {
			return err
		}
		if n != len(batch) {
			return fmt.Errorf("drained %d rules, want %d", n, len(batch))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Generation() - gen1; got != 1 {
		t.Fatalf("32-rule removal bumped generation %d times, want 1", got)
	}
	if got := e.PublishStats().Publishes - st1.Publishes; got != 1 {
		t.Fatalf("32-rule removal published %d times, want 1", got)
	}

	// Contrast: per-rule Engine.Remove is one publish per rule — the shape
	// the transaction API exists to avoid.
	for i := 0; i < 4; i++ {
		if err := e.Append("input", &Rule{Ops: NewOpSet(OpFileOpen), Target: Drop()}); err != nil {
			t.Fatal(err)
		}
	}
	gen2 := e.Generation()
	for i := 0; i < 4; i++ {
		if err := e.Remove("input", func(r *Rule) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Generation() - gen2; got != 4 {
		t.Fatalf("4 single removes bumped generation %d times, want 4", got)
	}
}

// TestIncrementalPublishTakesDeltaPath verifies the publish-path selection:
// small installs and removals patch the previous index; Flush, rollback
// recovery, and Config.FullRecompile rebuild from scratch.
func TestIncrementalPublishTakesDeltaPath(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	httpd := sid(pol, "httpd_t")

	r := &Rule{Subject: NewSIDSet(false, httpd), Ops: NewOpSet(OpFileOpen), Target: Drop()}
	if err := e.Append("input", r); err != nil {
		t.Fatal(err)
	}
	if st := e.PublishStats(); st.DeltaCompiles != 1 || st.FullCompiles != 0 {
		t.Fatalf("after one append: %+v, want 1 delta / 0 full", st)
	}
	if err := e.Remove("input", func(x *Rule) bool { return x == r }); err != nil {
		t.Fatal(err)
	}
	if st := e.PublishStats(); st.DeltaCompiles != 2 || st.FullCompiles != 0 {
		t.Fatalf("after remove: %+v, want 2 delta / 0 full", st)
	}

	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := e.PublishStats(); st.FullCompiles != 1 {
		t.Fatalf("after flush: %+v, want 1 full compile", st)
	}

	// Rollback forces the next publish to renumber from scratch; the one
	// after that patches again.
	if _, err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := e.Append("input", &Rule{Ops: NewOpSet(OpFileOpen), Target: Drop()}); err != nil {
		t.Fatal(err)
	}
	st := e.PublishStats()
	if st.FullCompiles != 2 || st.Rollbacks != 1 {
		t.Fatalf("after rollback+append: %+v, want 2 full / 1 rollback", st)
	}
	if err := e.Append("input", &Rule{Ops: NewOpSet(OpFileOpen), Target: Drop()}); err != nil {
		t.Fatal(err)
	}
	if got := e.PublishStats().DeltaCompiles; got != st.DeltaCompiles+1 {
		t.Fatalf("post-rollback steady state did not return to delta compiles: %+v", e.PublishStats())
	}
}

// TestRollbackRestoresVerdicts pins the rollback contract: the restored
// snapshot enforces immediately and identically to when it was current.
func TestRollbackRestoresVerdicts(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	httpd := sid(pol, "httpd_t")
	proc := newFakeProc(1, httpd, "/usr/bin/apache2")
	req := func() *Request {
		return &Request{Proc: proc, Op: OpFileOpen, Obj: &fakeRes{sid: sid(pol, "tmp_t")}}
	}

	if err := e.Append("input", &Rule{Subject: NewSIDSet(false, httpd), Ops: NewOpSet(OpFileOpen), Target: Accept()}); err != nil {
		t.Fatal(err)
	}
	verAccept := e.Version()
	if v := e.Filter(req()); v != VerdictAccept {
		t.Fatalf("baseline verdict = %v, want ACCEPT", v)
	}

	// A bad deploy: head-insert a drop.
	if err := e.Insert("input", &Rule{Ops: NewOpSet(OpFileOpen), Target: Drop()}); err != nil {
		t.Fatal(err)
	}
	if v := e.Filter(req()); v != VerdictDrop {
		t.Fatalf("post-deploy verdict = %v, want DROP", v)
	}

	ver, err := e.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if ver != verAccept || e.Version() != verAccept {
		t.Fatalf("rollback restored version %d (current %d), want %d", ver, e.Version(), verAccept)
	}
	if v := e.Filter(req()); v != VerdictAccept {
		t.Fatalf("post-rollback verdict = %v, want ACCEPT", v)
	}
	if e.RuleCount() != 1 {
		t.Fatalf("post-rollback rule count = %d, want 1", e.RuleCount())
	}

	// The rollback window is bounded: drain it and the next Rollback fails.
	for {
		if _, err := e.Rollback(); err != nil {
			break
		}
	}
	if _, err := e.Rollback(); err == nil {
		t.Fatal("rollback past the history window must fail")
	}
}

// TestOrdGapExhaustion pins the midpoint-collision fallback: when the two
// neighbors of an interior insertion hold adjacent order keys (no midpoint
// left), the transaction must transparently renumber via a full recompile
// and keep first-match order exact. ordBetween's arithmetic is checked
// directly, then the engine-level recovery end to end.
func TestOrdGapExhaustion(t *testing.T) {
	// Arithmetic: adjacent neighbors leave no midpoint.
	c := &Chain{generic: []*Rule{{ord: 4}, {ord: 5}}}
	tx := &Tx{e: New(testPolicy(), Config{})}
	if _, ok := tx.ordBetween(c, 1); ok {
		t.Fatal("ordBetween found a midpoint between adjacent keys 4 and 5")
	}
	if ord, ok := tx.ordBetween(c, 0); !ok || ord >= 4 {
		t.Fatalf("prepend ord = %d, %v; want < 4, ok", ord, ok)
	}
	if ord, ok := tx.ordBetween(c, 2); !ok || ord <= 5 {
		t.Fatalf("append ord = %d, %v; want > 5, ok", ord, ok)
	}

	// Engine-level recovery: squeeze the published keys to adjacency, then
	// replace the interior rule — publish must fall back to a full
	// recompile (renumbering) and the verdict order must hold.
	pol := testPolicy()
	e := New(pol, Optimized())
	httpd := sid(pol, "httpd_t")
	proc := newFakeProc(1, httpd, "/usr/bin/apache2")
	rules := []*Rule{
		{Ops: NewOpSet(OpFileOpen), Target: Accept()},
		{Ops: NewOpSet(OpFileOpen), Target: Accept()},
		{Ops: NewOpSet(OpFileOpen), Target: Drop()},
	}
	for _, r := range rules {
		if err := e.Append("input", r); err != nil {
			t.Fatal(err)
		}
	}
	e.writeMu.Lock()
	rules[0].ord = 4
	rules[1].ord = 4 // stale bucket copies don't matter: no filtering until republish
	rules[2].ord = 5
	e.writeMu.Unlock()

	st0 := e.PublishStats()
	err := e.Transaction(func(tx *Tx) error {
		return tx.ReplaceAt("input", 1, &Rule{Ops: NewOpSet(OpFileOpen), Target: Accept()})
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := e.PublishStats(); st.FullCompiles != st0.FullCompiles+1 {
		t.Fatalf("exhausted midpoint did not force a full recompile: %+v", st)
	}
	if v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: &fakeRes{sid: sid(pol, "tmp_t")}}); v != VerdictAccept {
		t.Fatalf("verdict = %v, want ACCEPT (head rule first)", v)
	}
	// And the renumbered base patches incrementally again.
	if err := e.Remove("input", func(r *Rule) bool { return r == rules[2] }); err != nil {
		t.Fatal(err)
	}
	if st := e.PublishStats(); st.DeltaCompiles == 0 {
		t.Fatalf("post-renumber publish did not take the delta path: %+v", st)
	}
}

// --- satellite: -race stress over publishes, rollbacks, mediation -------

// TestPublishRollbackMediationStress interleaves incremental publishes,
// rollbacks, and batched mediation across goroutines. Run under -race this
// checks the COW ownership rules (shared snapshots are never written); the
// accounting check asserts verdict conservation — every request issued
// during live updates got exactly one Accept or Drop, none lost or blocked.
func TestPublishRollbackMediationStress(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	httpd := sid(pol, "httpd_t")
	tmp := sid(pol, "tmp_t")

	// A stable floor rule so verdicts stay meaningful mid-churn.
	if err := e.Append("input", &Rule{Ops: NewOpSet(OpFileOpen), Object: NewSIDSet(false, sid(pol, "shadow_t")), Target: Drop()}); err != nil {
		t.Fatal(err)
	}

	const (
		readers  = 4
		duration = 300 * time.Millisecond
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: churn waves through transactions, with replaces and rollbacks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := &diffRNG{s: 0xfeed}
		cycle := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			cycle++
			tag := fmt.Sprintf("<wave-%d>", cycle)
			err := e.Transaction(func(tx *Tx) error {
				for i := 0; i < 8; i++ {
					r := &Rule{
						Subject: NewSIDSet(false, httpd),
						Ops:     NewOpSet(OpFileOpen),
						Target:  Accept(),
						Src:     Pos{File: tag, Line: i},
					}
					if rng.intn(4) == 0 {
						r.Target = Drop()
					}
					if err := tx.Append("input", r); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if rng.intn(8) == 0 {
				if _, err := e.Rollback(); err != nil {
					t.Error(err)
					return
				}
			}
			// Drain this wave's survivors (a rollback may already have
			// unpublished them; zero removals is fine).
			err = e.Transaction(func(tx *Tx) error {
				_, err := tx.RemoveAll("input", func(r *Rule) bool { return r.Src.File == tag })
				return err
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var issued [readers]uint64
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			proc := newFakeProc(100+g, httpd, "/usr/bin/apache2")
			res := &fakeRes{sid: tmp, id: uint64(g)}
			for {
				select {
				case <-stop:
					return
				default:
				}
				proc.ps.BeginSyscall()
				var b Batch
				e.StartBatch(&b, proc)
				for i := 0; i < 4; i++ {
					v := b.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: res})
					if v != VerdictAccept && v != VerdictDrop {
						t.Errorf("reader %d: verdict %v is neither accept nor drop", g, v)
						b.Finish()
						return
					}
					issued[g]++
				}
				b.Finish()
			}
		}(g)
	}

	time.Sleep(duration)
	close(stop)
	wg.Wait()

	var total uint64
	for _, n := range issued {
		total += n
	}
	req := e.Stats.Requests.Load()
	acc := e.Stats.Accepts.Load()
	drp := e.Stats.Drops.Load()
	if req != acc+drp {
		t.Fatalf("verdicts not conserved: requests=%d accepts=%d drops=%d", req, acc, drp)
	}
	if req != total {
		t.Fatalf("engine saw %d requests, readers issued %d", req, total)
	}
	st := e.PublishStats()
	if st.DeltaCompiles == 0 || st.Publishes < 10 {
		t.Fatalf("stress exercised too little of the publish path: %+v", st)
	}
	t.Logf("stress: %d requests, %d publishes (%d delta, %d full, %d rollbacks)",
		req, st.Publishes, st.DeltaCompiles, st.FullCompiles, st.Rollbacks)
}

// TestSpanVersionFollowsPublishAndRollback pins the version stamp every
// engine-filled span carries: a request filtered after a publish names
// that publish's version — on the traced span, the LOG record and the
// DROP flight record alike — and after Rollback the restored snapshot's
// older version.
func TestSpanVersionFollowsPublishAndRollback(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	e.Log = obs.NewSpanLog("")
	reg := obs.New()
	e.AttachObs(reg, ObsConfig{})
	proc := newFakeProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
	obj := &fakeRes{sid: sid(pol, "tmp_t"), path: "/tmp/x"}
	filter := func() (Verdict, obs.Span, obs.Span) {
		var sp obs.Span
		v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: obj, Span: &sp})
		logs := e.Log.Snapshot()
		return v, sp, logs[len(logs)-1]
	}

	if err := e.Append("mangle/input", &Rule{Target: &LogTarget{Prefix: "v"}}); err != nil {
		t.Fatal(err)
	}
	v1 := e.Version()
	if _, sp, lr := filter(); sp.Version != v1 || lr.Version != v1 {
		t.Fatalf("after publish v%d: span v%d, log v%d", v1, sp.Version, lr.Version)
	}

	if err := e.Append("input", &Rule{Ops: NewOpSet(OpFileOpen), Target: Drop()}); err != nil {
		t.Fatal(err)
	}
	v2 := e.Version()
	if v2 <= v1 {
		t.Fatalf("publish did not advance the version: %d -> %d", v1, v2)
	}
	v, sp, lr := filter()
	if v != VerdictDrop || sp.Version != v2 || lr.Version != v2 {
		t.Fatalf("after publish v%d: verdict %v, span v%d, log v%d", v2, v, sp.Version, lr.Version)
	}
	drops := reg.JSON().Spans["pf_flight_drop"].Recent
	if len(drops) != 1 || drops[0].Version != v2 {
		t.Fatalf("flight record = %+v, want one DROP at v%d", drops, v2)
	}

	restored, err := e.Rollback()
	if err != nil || restored != v1 {
		t.Fatalf("Rollback = %d, %v; want v%d", restored, err, v1)
	}
	if v, sp, lr := filter(); v != VerdictAccept || sp.Version != v1 || lr.Version != v1 {
		t.Fatalf("after rollback to v%d: verdict %v, span v%d, log v%d", v1, v, sp.Version, lr.Version)
	}
}
