package lmbench

import (
	"strings"
	"testing"
)

func TestConfigsMatchPaperColumns(t *testing.T) {
	want := []string{"DISABLED", "BASE", "FULL", "CONCACHE", "LAZYCON", "EPTSPC"}
	cfgs := Configs()
	if len(cfgs) != len(want) {
		t.Fatalf("configs = %d, want %d", len(cfgs), len(want))
	}
	for i, c := range cfgs {
		if c.Name != want[i] {
			t.Errorf("config %d = %q, want %q", i, c.Name, want[i])
		}
	}
	// Monotone optimization flags, as in the paper: "each column except
	// the last incorporates optimizations of the previous column".
	if cfgs[3].Engine.CtxCache != true || cfgs[4].Engine.LazyCtx != true || cfgs[5].Engine.EptChains != true {
		t.Error("optimization flags not cumulative")
	}
}

func TestWorkloadsMatchPaperRows(t *testing.T) {
	want := []string{"null", "stat", "read", "write", "fstat", "open+close",
		"fork+exit", "fork+execve", "fork+sh -c"}
	wls := Workloads()
	if len(wls) != len(want) {
		t.Fatalf("workloads = %d, want %d", len(wls), len(want))
	}
	for i, wl := range wls {
		if wl.Name != want[i] {
			t.Errorf("workload %d = %q, want %q", i, wl.Name, want[i])
		}
	}
}

func TestSyntheticRuleBaseSizeAndValidity(t *testing.T) {
	rules := SyntheticRuleBase(FullRuleBaseSize)
	if len(rules) != 1218 {
		t.Fatalf("rule base = %d, want 1218 (the paper's deployment size)", len(rules))
	}
	// Every rule must install (World panics otherwise).
	w := World(Config{Name: "FULL", Attach: true, Rules: true})
	if got := w.Engine.RuleCount(); got != 1218 {
		t.Errorf("installed = %d, want 1218", got)
	}
}

func TestEveryWorkloadRunsUnderEveryConfig(t *testing.T) {
	// Smoke: each cell completes a few iterations without error and
	// reports a positive latency on both sides.
	cells := table6Cells()
	if len(cells) != len(Workloads())*len(Configs()) {
		t.Fatalf("cells = %d, want one per workload and config", len(cells))
	}
	for i, r := range runSmall(cells, 5, 1) {
		wl, cfg := Workloads()[i/len(Configs())], Configs()[i%len(Configs())]
		if r.B.MedianNs <= 0 || r.A.MedianNs <= 0 {
			t.Errorf("%s: ns/op = %v / %v", r.Name, r.A.MedianNs, r.B.MedianNs)
		}
		if r.Name != "table6/"+wl.Name+"/"+cfg.Name || r.A.Name != "DISABLED" || r.B.Name != cfg.Name {
			t.Errorf("cell labels wrong: %s (%s vs %s)", r.Name, r.A.Name, r.B.Name)
		}
	}
}

func TestFormatTable6Layout(t *testing.T) {
	var rs []Result
	for _, c := range []struct {
		cfg string
		ns  float64
	}{{"DISABLED", 100}, {"BASE", 110}, {"FULL", 200}, {"CONCACHE", 180}, {"LAZYCON", 170}, {"EPTSPC", 111}} {
		rs = append(rs, Result{
			Name:  "table6/stat/" + c.cfg,
			A:     &SideResult{MedianNs: 100},
			B:     SideResult{MedianNs: c.ns},
			Ratio: &CI{Median: c.ns / 100},
		})
	}
	out := RenderTable6(rs)
	if !strings.Contains(out, "stat") || !strings.Contains(out, "+10.0%") || !strings.Contains(out, "+100.0%") {
		t.Errorf("format:\n%s", out)
	}
	if !strings.Contains(Render(rs), "Table 6") {
		t.Errorf("Render drops Table 6:\n%s", Render(rs))
	}
}

func TestEptspcBeatsFullScan(t *testing.T) {
	// The core Table 6 claim, asserted as an inequality rather than a
	// number: with the 1218-rule base, the fully optimized engine is much
	// cheaper per open than the unoptimized one.
	var cells []Cell
	for _, c := range table6Cells() {
		if c.Name == "table6/open+close/FULL" || c.Name == "table6/open+close/EPTSPC" {
			cells = append(cells, c)
		}
	}
	rs := runSmall(cells, 80, 5)
	full, ept := rs[0].B, rs[1].B
	if ept.MedianNs*5 > full.MedianNs {
		t.Errorf("EPTSPC (%v ns) should be at least 5x cheaper than FULL (%v ns)",
			ept.MedianNs, full.MedianNs)
	}
}
