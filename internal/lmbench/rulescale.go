// rulescale.go measures how per-mediation cost scales with the size of the
// installed rule base. Each cell pairs two engine modes at one size:
// "linear" is the paper's fully optimized configuration (EPTSPC: context
// caching, lazy context, entrypoint chains) whose generic rules are still
// walked linearly, and "compiled" adds the publish-time dispatch index
// (pf.Config.RuleIndex), which should hold ns/op nearly flat as the rule
// count grows.
package lmbench

import (
	"fmt"

	"pfirewall/internal/pf"
	"pfirewall/internal/programs"
	"pfirewall/internal/rulegen"
)

// ruleScaleModes maps side names to engine configs. Both sides carry
// every paper optimization so the ratio isolates the dispatch index.
var ruleScaleModes = []struct {
	name string
	cfg  pf.Config
}{
	{"linear", pf.Config{CtxCache: true, LazyCtx: true, EptChains: true}},
	{"compiled", pf.Config{CtxCache: true, LazyCtx: true, EptChains: true, RuleIndex: true}},
}

// ruleScaleCells times the mediated open+close pair (two PF hooks plus
// directory-search mediation per component — the workload most sensitive
// to rule-base size) on the generated rule base of each size.
func ruleScaleCells(sizes []int) []Cell {
	var out []Cell
	for _, n := range sizes {
		var sides [2]Side
		for i, m := range ruleScaleModes {
			sides[i] = Side{Name: m.name, Setup: func() Instance {
				cfg := m.cfg
				w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
				if _, err := w.InstallRules(rulegen.ScaleRuleBase(1, n)); err != nil {
					panic(err)
				}
				return Instance{Bodies: procBodies(w, 1, openClose)}
			}}
		}
		out = append(out, Cell{Name: fmt.Sprintf("rulescale/rules=%d", n), A: &sides[0], B: sides[1]})
	}
	return out
}
