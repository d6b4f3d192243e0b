package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"pfirewall/internal/worldgen"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmokeTiny runs every workload, untraced and traced, briefly on the
// tiny world and a small rule base. Every metric BENCHMARK.json names must
// be emitted with its unit, and no operation may fail.
func TestSmokeTiny(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloadNames))
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			name := wl.Name + "/e2e"
			if trace {
				name = wl.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				p, err := defaultParams(wl.Name, 3, 1.5, trace)
				if err != nil {
					t.Fatal(err)
				}
				p.spec, p.hotRules, p.setups, p.outDir = worldgen.Tiny, 200, 1, t.TempDir()
				rep, err := run(p)
				if err != nil {
					t.Fatal(err)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				got := map[string]metric{}
				for _, m := range rep.metrics {
					got[m.Name] = m
				}
				if len(got) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(got), len(want))
				}
				for _, w := range want {
					m, ok := got[w.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", w.Name)
					case m.Unit != w.Unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
					}
				}
				if rep.attempted == 0 || rep.failed != 0 {
					t.Errorf("attempted %d, failed %d: %s", rep.attempted, rep.failed, strings.Join(rep.failures, "; "))
				}

				var out bytes.Buffer
				if err := emit(&out, p, rep); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
					if _, ok := last[k]; !ok {
						t.Errorf("result line lacks %q", k)
					}
				}
				if len(last) != 4 {
					t.Errorf("result line has %d keys, want 4", len(last))
				}
			})
		}
	}
}
