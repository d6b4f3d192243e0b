// verifyscale.go measures the symbolic policy verifier. The question: how does a full invariant
// sweep (pfverify.Check over every abstract point in scope) scale with
// the installed rule-base size? The verifier prunes with the same
// bucket-level dispatch index the hot path compiled (per-lane rule lists
// keyed by op and subject SID), so sweep cost should grow with the label
// universe, not the raw rule count — at deployment scale (10k rules) the
// whole proof must still land under a CI-friendly wall-clock budget.
package lmbench

import (
	"fmt"
	"time"

	"pfirewall/internal/pf"
	"pfirewall/internal/pfverify"
	"pfirewall/internal/programs"
	"pfirewall/internal/rulegen"
)

// VerifyBudget is the wall-clock budget for one full invariant sweep; the
// gate holds every round of every size to it.
const VerifyBudget = 10 * time.Second

// verifyGuardRules are prepended to the synthetic base so the bench
// invariants have something to prove: a subjectless unlink guard on the
// secret label (swept against every interned subject label — the wide
// cell) and a per-subject open guard across the scale objects.
var verifyGuardRules = []string{
	`pftables -I input -d {vrf_secret_t} -o FILE_UNLINK -j DROP`,
	`pftables -I input -s {vrf_guard_t} -d {scl_obj00_t|scl_obj01_t|scl_obj02_t|scl_obj03_t|scl_obj04_t|scl_obj05_t|scl_obj06_t|scl_obj07_t|scl_obj08_t|scl_obj09_t|scl_obj10_t|scl_obj11_t|scl_obj12_t|scl_obj13_t|scl_obj14_t|scl_obj15_t|scl_obj16_t|scl_obj17_t|scl_obj18_t|scl_obj19_t|scl_obj20_t|scl_obj21_t|scl_obj22_t|scl_obj23_t} -o FILE_OPEN -j DROP`,
}

// verifyInvariants are the properties swept at every size. The wide cell
// enumerates every subject label the rule base interned (so its point
// count grows with the base), the narrow cell pins one subject across
// the 24 scale objects.
const verifyInvariants = `
invariant scale-secret-unlink {
    require DROP
    op FILE_UNLINK
    subject any
    object vrf_secret_t
}

invariant scale-guard-open {
    require DROP
    op FILE_OPEN
    subject vrf_guard_t
    object scl_obj??_t
}
`

// verifyCells times one full pfverify.Check sweep of the bench invariants
// per op, over synthetic rule bases of each size.
func verifyCells(sizes []int) []Cell {
	var out []Cell
	for _, n := range sizes {
		out = append(out, Cell{Name: fmt.Sprintf("verify/rules=%d", n),
			B: Side{Name: "sweep", Setup: func() Instance { return verifyInstance(n) }},
			Gates: []Gate{{Name: "every invariant proves within " + VerifyBudget.String(), Check: func(r *Result) error {
				if r.B.Extra["holds"] != 1 {
					return fmt.Errorf("invariants not proven at %.0f rules", r.B.Extra["rules"])
				}
				for _, ns := range r.B.RoundNs {
					if time.Duration(ns) > VerifyBudget {
						return fmt.Errorf("a sweep took %s, budget %s", time.Duration(ns), VerifyBudget)
					}
				}
				return nil
			}}},
		})
	}
	return out
}

func verifyInstance(n int) Instance {
	invs, err := pfverify.ParseInvariants("<verifyscale>", verifyInvariants)
	if err != nil {
		panic(err)
	}
	cfg := pf.Optimized()
	w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
	lines := append(append([]string{}, verifyGuardRules...), rulegen.ScaleRuleBase(1, n)...)
	if _, err := w.InstallRules(lines); err != nil {
		panic(err)
	}
	tbl := w.K.Policy.SIDs()
	var chk *pfverify.Report
	return Instance{
		Bodies: []func(){func() { chk = pfverify.Check(pfverify.FromEngine(w.Engine), tbl, invs) }},
		Done: func() map[string]float64 {
			holds := 1.0
			for _, res := range chk.Results {
				if !res.Holds || !res.Definitely {
					holds = 0
				}
			}
			return map[string]float64{
				"rules":      float64(w.Engine.RuleCount()),
				"labels":     float64(len(tbl.Labels())),
				"invariants": float64(len(chk.Results)),
				"points":     float64(chk.Points),
				"holds":      holds,
			}
		},
	}
}
