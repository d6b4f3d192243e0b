package lmbench

import (
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
	"time"
)

// runSmall runs cells at test size: iters body calls per round (0 keeps a
// cell's own Iters, or sizes it to a 2ms round) and the given round count.
func runSmall(cells []Cell, iters, rounds int) []Result {
	for i := range cells {
		if iters > 0 {
			cells[i].Iters = iters
		} else if cells[i].Iters == 0 {
			cells[i].Target = 2 * time.Millisecond
		}
		cells[i].Rounds = rounds
	}
	return Run(cells, nil)
}

// TestRunnerInterleavesRounds checks the runner's bookkeeping on a fake
// cell: rounds alternate which side goes first, GOMAXPROCS is pinned for
// the cell and restored after it, Count overrides the call count, Done's
// counters land in the result, and gates are evaluated.
func TestRunnerInterleavesRounds(t *testing.T) {
	var order strings.Builder
	procs := 0
	side := func(name string, perCall int64) Side {
		return Side{Name: name, Setup: func() Instance {
			procs = runtime.GOMAXPROCS(0)
			var n int64
			return Instance{
				Bodies: []func(){func() { n += perCall }},
				Count:  func() int64 { return n },
				Round: func() func() {
					order.WriteString(name)
					return func() {}
				},
				Done: func() map[string]float64 { return map[string]float64{"calls": float64(n / perCall)} },
			}
		}}
	}
	a := side("A", 1)
	before := runtime.GOMAXPROCS(0)
	r := Run([]Cell{{
		Name: "fake", A: &a, B: side("B", 10), Iters: 3, Rounds: 4, Procs: 1,
		Gates: []Gate{ratioAtMost("never", 0)},
	}}, nil)[0]
	if got := order.String(); got != "ABBAABBA" {
		t.Errorf("round order = %s, want ABBAABBA", got)
	}
	if procs != 1 || r.GOMAXPROCS != 1 || runtime.GOMAXPROCS(0) != before {
		t.Errorf("GOMAXPROCS: setup saw %d, recorded %d, restored to %d (was %d)",
			procs, r.GOMAXPROCS, runtime.GOMAXPROCS(0), before)
	}
	if len(r.A.RoundNs) != 4 || len(r.B.RoundNs) != 4 || r.Rounds != 4 {
		t.Errorf("rounds: %d/%d samples, recorded %d", len(r.A.RoundNs), len(r.B.RoundNs), r.Rounds)
	}
	// Three calls per round over four rounds; B counts ten ops per call.
	if r.A.Ops != 12 || r.B.Ops != 120 {
		t.Errorf("ops = %d/%d, want 12/120", r.A.Ops, r.B.Ops)
	}
	// Done sees the warm-up call too.
	if r.A.Extra["calls"] != 13 {
		t.Errorf("Done counters = %v", r.A.Extra)
	}
	if r.Ratio == nil || r.Ratio.Lo > r.Ratio.Median || r.Ratio.Median > r.Ratio.Hi {
		t.Errorf("ratio interval %+v", r.Ratio)
	}
	if len(r.Gates) != 1 || r.Gates[0].OK {
		t.Errorf("gate not evaluated: %+v", r.Gates)
	}
}

// bestRoundPct is the statistic the gates used before the cell runner: the
// smallest paired-round overhead, in percent. A gate rejected a run only
// when even its best round exceeded the budget.
func bestRoundPct(a, b []float64) float64 {
	best := 0.0
	for i := range a {
		if pct := (b[i] - a[i]) / a[i] * 100; i == 0 || pct < best {
			best = pct
		}
	}
	return best
}

// pairedResult is the result the runner records for a paired cell with
// these per-round costs.
func pairedResult(a, b []float64) *Result {
	ci := bootstrap("strictness", roundRatios(a, b), nil)
	return &Result{A: &SideResult{RoundNs: a}, B: SideResult{RoundNs: b}, Ratio: &ci}
}

// TestGateStrictness shows each ratio gate is at least as strict as the
// gate it replaced: over synthetic paired samples, every set the old rule
// rejects the new one rejects too. For the overhead budgets (tracing,
// disturbance, metrics) the old rule was the best paired round, and some
// sets it passed — like a run whose best round is -19.9% while most
// rounds sit above budget — now fail. For the publish speedup it was the
// ratio of mean costs, which the new gate still applies alongside the
// interval.
func TestGateStrictness(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	newRejects := func(a, b []float64, budgetPct float64) bool {
		return ratioAtMost("g", 1+budgetPct/100).Check(pairedResult(a, b)) != nil
	}
	oldRejected, tightened := 0, 0
	for trial := 0; trial < 3000; trial++ {
		n := 3 + rng.IntN(19)
		budget := []float64{5, 10}[trial%2]
		overhead := 0.8 + rng.Float64()*0.5 // true B/A between 0.8 and 1.3
		spread := rng.Float64() * 0.4       // per-round noise up to ±40%
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i] = 1000 * (1 + spread*(rng.Float64()-0.5))
			b[i] = a[i] * overhead * (1 + spread*(rng.Float64()-0.5))
		}
		old := bestRoundPct(a, b) > budget
		cur := newRejects(a, b, budget)
		if old && !cur {
			t.Fatalf("trial %d: best-round gate rejects (best %+.1f%% > %.0f%%) but the interval gate passes: a=%v b=%v",
				trial, bestRoundPct(a, b), budget, a, b)
		}
		if old {
			oldRejected++
		}
		if cur && !old {
			tightened++
		}
	}
	if oldRejected == 0 || tightened == 0 {
		t.Errorf("synthetic sets exercised too little: %d rejected by both, %d newly rejected", oldRejected, tightened)
	}

	// A policy-disturbance run of the old artifact's shape: one lucky round
	// at -19.9%, the rest above the 10% budget.
	a := []float64{100, 100, 100, 100, 100, 100, 100}
	b := []float64{80.1, 112, 115, 110.5, 113, 114, 109}
	if bestRoundPct(a, b) > 10 {
		t.Fatal("the best-round gate should have passed this run")
	}
	if !newRejects(a, b, 10) {
		t.Error("the interval gate passes a run whose median round is over budget")
	}

	// The publish speedup: full rebuild (A) against incremental (B), where
	// the old gate rejected mean(A)/mean(B) < need.
	oldRejected, tightened = 0, 0
	for trial := 0; trial < 3000; trial++ {
		n := 3 + rng.IntN(19)
		need := []float64{1.5, 10}[trial%2]
		speedup := need * (0.6 + rng.Float64()*0.8)
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i] = 1e6 * (1 + 0.4*(rng.Float64()-0.5))
			b[i] = a[i] / speedup * (1 + 0.4*(rng.Float64()-0.5))
			if rng.IntN(8) == 0 { // a GC pause or a slow compile
				b[i] *= 1 + 20*rng.Float64()
			}
		}
		old := mean(a)/mean(b) < need
		cur := speedupAtLeast("g", need).Check(pairedResult(a, b)) != nil
		if old && !cur {
			t.Fatalf("trial %d: ratio of means %.2f < %.1f but the speedup gate passes: a=%v b=%v",
				trial, mean(a)/mean(b), need, a, b)
		}
		if old {
			oldRejected++
		}
		if cur && !old {
			tightened++
		}
	}
	if oldRejected == 0 || tightened == 0 {
		t.Errorf("synthetic publish sets exercised too little: %d rejected by both, %d newly rejected", oldRejected, tightened)
	}

	// Incremental publish with a heavy tail: 19 of 21 rounds 12x faster,
	// two slowed by large outliers. The median ratio and its interval clear
	// 10x; the ratio of means does not, and the gate must fail.
	a, b = make([]float64, 21), make([]float64, 21)
	for i := range a {
		a[i], b[i] = 1e6, float64(82e3+i%3*1e3)
	}
	b[7], b[15] = 3e5, 3e5
	if r := pairedResult(a, b); 1/r.Ratio.Hi < 10 || mean(a)/mean(b) >= 10 {
		t.Fatalf("tail example mis-built: interval speedup %.1f, ratio of means %.1f", 1/r.Ratio.Hi, mean(a)/mean(b))
	}
	if speedupAtLeast("g", 10).Check(pairedResult(a, b)) == nil {
		t.Error("the speedup gate passes a tail regression the ratio of means rejects")
	}

	// The verifier budget: the old gate timed one sweep after a warm-up and
	// rejected it over VerifyBudget or with any invariant unproven; the new
	// one holds every measured round to the budget, so a set with any sweep
	// over budget, wherever it falls, is rejected.
	verify := verifyCells([]int{100})[0].Gates[0]
	budget := float64(VerifyBudget)
	for trial := 0; trial < 300; trial++ {
		rounds := make([]float64, 1+rng.IntN(5))
		for i := range rounds {
			rounds[i] = budget * (0.5 + rng.Float64())
		}
		holds := float64(rng.IntN(2))
		r := &Result{B: SideResult{RoundNs: rounds, Extra: map[string]float64{"holds": holds}}}
		old := holds != 1
		for _, ns := range rounds {
			old = old || ns > budget
		}
		if cur := verify.Check(r) != nil; old && !cur {
			t.Fatalf("verify gate passes rounds %v (holds %v) that the old gate rejects", rounds, holds)
		}
	}

	// The count gates keep their figure and threshold: any stale verdict
	// after a completed publish, and any request not resolved to a verdict.
	stale := policyPropagationCell().Gates[0]
	conserved := policyDisturbanceCell().Gates[0]
	for _, n := range []float64{0, 1, 7} {
		ok := 1.0
		if n > 0 {
			ok = 0
		}
		r := &Result{B: SideResult{Extra: map[string]float64{"stale_verdicts": n, "verdicts_conserved": ok}}}
		if (stale.Check(r) != nil) != (n > 0) || (conserved.Check(r) != nil) != (n > 0) {
			t.Errorf("count gates disagree with their predecessors at %v stale verdicts (conserved=%v)", n, ok)
		}
	}
}

func TestBootstrapBracketsMedian(t *testing.T) {
	xs := []float64{1.02, 0.97, 1.10, 1.01, 0.99, 1.05, 1.00, 0.98, 1.03}
	ci := bootstrap("x", xs, nil)
	if ci.Median != 1.01 || ci.Lo > ci.Median || ci.Hi < ci.Median || ci.Lo < 0.97 || ci.Hi > 1.10 {
		t.Errorf("interval %+v for %v", ci, xs)
	}
	if again := bootstrap("x", xs, nil); again != ci {
		t.Errorf("bootstrap not reproducible: %+v vs %+v", ci, again)
	}
	twice := make([]float64, len(xs))
	for i, x := range xs {
		twice[i] = 2 * x
	}
	if r := bootstrap("x", twice, xs); r.Median != 2 || r.Lo > 2 || r.Hi < 2 {
		t.Errorf("ratio of medians %+v, want 2 inside", r)
	}
}

// TestCompare checks -compare's cell matching and machine refusal, and
// that a paired cell is judged on its B/A ratios: drift both sides share
// cancels, a move of B alone does not.
func TestCompare(t *testing.T) {
	fp := Fingerprint{CPU: "cpu", NumCPU: 2, GoVersion: "go1", Commit: "a"}
	suite := func(fp Fingerprint, scale float64) Suite {
		var rounds []float64
		for _, v := range []float64{100, 103, 98, 101, 99, 102, 97} {
			rounds = append(rounds, v*scale)
		}
		steady := []float64{100, 103, 98, 101, 99, 102, 97}
		return Suite{Fingerprint: fp, Cells: []Result{
			{Name: "moved", B: SideResult{RoundNs: rounds, MedianNs: median(rounds)}},
			{Name: "steady", B: SideResult{RoundNs: steady, MedianNs: 100}},
			// Both sides drift with scale: B/A holds.
			{Name: "paired-drift", A: &SideResult{RoundNs: rounds}, B: SideResult{RoundNs: rounds, MedianNs: median(rounds)}},
			// B drifts, A does not: B/A moves.
			{Name: "paired-moved", A: &SideResult{RoundNs: steady}, B: SideResult{RoundNs: rounds, MedianNs: median(rounds)}},
		}}
	}
	changes, err := Compare(suite(fp, 1), suite(Fingerprint{CPU: "cpu", NumCPU: 2, GoVersion: "go1", Commit: "b"}, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 2 || changes[0].Cell != "moved" || changes[0].Paired || changes[0].Ratio.Lo <= 1 ||
		changes[1].Cell != "paired-moved" || !changes[1].Paired || changes[1].New < 1.4 || changes[1].Ratio.Lo <= 1 {
		t.Errorf("changes = %+v, want the unpaired moved cell and the paired one whose B/A moved", changes)
	}
	for _, other := range []Fingerprint{
		{CPU: "other", NumCPU: 2, GoVersion: "go1"},
		{CPU: "cpu", NumCPU: 4, GoVersion: "go1"},
		{CPU: "cpu", NumCPU: 2, GoVersion: "go2"},
	} {
		if _, err := Compare(suite(fp, 1), suite(other, 1)); err == nil {
			t.Errorf("compared across machines: %+v", other)
		}
	}
	smoke := suite(fp, 1)
	smoke.Smoke = true
	if _, err := Compare(suite(fp, 1), smoke); err == nil {
		t.Error("compared a smoke suite with a full one")
	}
}

// TestRegistryNamesAreUnique keeps -run selection and -compare matching
// unambiguous, and checks every cell is runnable as declared.
func TestRegistryNamesAreUnique(t *testing.T) {
	for _, smoke := range []bool{false, true} {
		seen := map[string]bool{}
		for _, c := range Cells(smoke) {
			if seen[c.Name] {
				t.Errorf("duplicate cell %q", c.Name)
			}
			seen[c.Name] = true
			if c.Rounds < 1 || (c.Iters == 0 && c.Target <= 0) || c.B.Setup == nil {
				t.Errorf("cell %q not runnable: %+v", c.Name, c)
			}
		}
	}
}
