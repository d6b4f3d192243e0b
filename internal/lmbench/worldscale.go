// worldscale.go sweeps the fleet stress bed across world sizes and fleet
// sizes: every op body runs a mixed daemon fleet against a freshly built
// deployment-scale world for a fixed wall-clock budget with live process
// churn, concurrent rule mutation and adversary filesystem noise.
// One op is one persona operation, so ns/op is inverse fleet throughput;
// the extras carry the tail latency and the churn/conservation accounting.
package lmbench

import (
	"fmt"
	"time"

	"pfirewall/internal/fleet"
	"pfirewall/internal/pf"
	"pfirewall/internal/programs"
	"pfirewall/internal/worldgen"
)

// worldScaleSeed drives both world generation and fleet schedules.
const worldScaleSeed = 1

// worldScaleRounds is the round count of a fleet cell: each round already
// holds the fleet under traffic for a whole run.
const worldScaleRounds = 3

func worldScaleCells(sizes []string, fleets []int, run time.Duration) []Cell {
	var out []Cell
	for _, name := range sizes {
		spec, ok := worldgen.SpecByName(name)
		if !ok {
			panic(fmt.Sprintf("worldscale: unknown world size %q", name))
		}
		spec.Seed = worldScaleSeed
		for _, f := range fleets {
			out = append(out, Cell{Name: fmt.Sprintf("worldscale/%s/fleet=%d", name, f), Iters: 1, Rounds: worldScaleRounds,
				B: Side{Name: "fleet", Setup: func() Instance { return fleetInstance(spec, f, run) }}})
		}
	}
	return out
}

// fleetInstance serves each fleet run a freshly built world: a fleet run
// leaves state behind (the next fleet on the same world sees unexpected
// errors), and the engine's verdict counters then stay run-local. The
// build happens in the untimed Round hook.
func fleetInstance(spec worldgen.Spec, instances int, run time.Duration) Instance {
	build := func() *worldgen.World {
		cfg := pf.Optimized()
		return worldgen.Build(spec, programs.WorldOpts{PF: &cfg, MACEnforcing: true})
	}
	w := build()
	var ops int64
	var last fleet.Report
	extra := map[string]float64{"verdicts_conserved": 1}
	return Instance{
		Bodies: []func(){func() {
			last = fleet.New(w, fleet.Config{
				Seed:      worldScaleSeed,
				Instances: instances,
				Duration:  run,
				RuleChurn: true, ProcChurn: true, AdversaryChurn: true,
			}).Run()
			ops += last.Ops
			extra["crashes"] += float64(last.Crashes)
			extra["restarts"] += float64(last.Restarts)
			extra["rule_mutations"] += float64(last.RuleMutations)
			extra["expected_denies"] += float64(last.ExpectedDenies)
			extra["unexpected_allows"] += float64(last.UnexpectedAllows)
			extra["unexpected_errors"] += float64(last.UnexpectedErrors)
			if !last.VerdictsConserved {
				extra["verdicts_conserved"] = 0
			}
		}},
		Count: func() int64 { return ops },
		Round: func() func() {
			w = build()
			return func() {}
		},
		Done: func() map[string]float64 {
			extra["inodes"] = float64(w.Stats.Inodes)
			extra["rules"] = float64(w.Stats.Rules)
			extra["build_ms"] = w.Stats.BuildMs
			extra["p50_ns"], extra["p99_ns"], extra["p999_ns"] = last.P50Ns, last.P99Ns, last.P999Ns
			return extra
		},
	}
}
