package webbench_test

import (
	"strings"
	"testing"

	"pfirewall/internal/lmbench"
	"pfirewall/internal/webbench"
)

// cells returns the smoke-size registry cells of one family, cut to a
// single short round.
func cells(prefix string) []lmbench.Cell {
	var out []lmbench.Cell
	for _, c := range lmbench.Cells(true) {
		if strings.HasPrefix(c.Name, prefix) {
			c.Iters, c.Rounds = 1, 1
			out = append(out, c)
		}
	}
	return out
}

func TestApacheBuildAndBootComplete(t *testing.T) {
	for _, cfg := range webbench.MacroConfigs() {
		w := webbench.NewMacroWorld(cfg, lmbench.SyntheticRuleBase(64))
		if err := webbench.ApacheBuild(w, 5); err != nil {
			t.Errorf("%s build: %v", cfg.Name, err)
		}
		// Repeatable (cleanup must be complete).
		if err := webbench.ApacheBuild(w, 5); err != nil {
			t.Errorf("%s build rerun: %v", cfg.Name, err)
		}
		if err := webbench.Boot(w, 3); err != nil {
			t.Errorf("%s boot: %v", cfg.Name, err)
		}
		if err := webbench.Boot(w, 3); err != nil {
			t.Errorf("%s boot rerun: %v", cfg.Name, err)
		}
	}
}

func TestFormatFigure5(t *testing.T) {
	// 100 req/s under program checks, 110 under rule R8: the cell stores
	// ns per request, so B/A is 100/110.
	out := lmbench.RenderFigure5([]lmbench.Result{{
		Name:  "fig5/c=1/n=1",
		A:     &lmbench.SideResult{MedianNs: 1e9 / 100},
		B:     lmbench.SideResult{MedianNs: 1e9 / 110},
		Ratio: &lmbench.CI{Median: 100.0 / 110},
	}})
	if !strings.Contains(out, "+10.0%") {
		t.Errorf("format:\n%s", out)
	}
}

func TestFormatTable7(t *testing.T) {
	var rs []lmbench.Result
	for _, c := range []struct {
		cfg string
		ns  float64
	}{{"PF Base", 1100000}, {"PF Full", 1500000}} {
		rs = append(rs, lmbench.Result{
			Name:  "table7/Boot/" + c.cfg,
			A:     &lmbench.SideResult{MedianNs: 1000000},
			B:     lmbench.SideResult{MedianNs: c.ns},
			Ratio: &lmbench.CI{Median: c.ns / 1000000},
		})
	}
	out := lmbench.RenderTable7(rs)
	if !strings.Contains(out, "Boot") || !strings.Contains(out, "Without PF") || !strings.Contains(out, "+50.0%") {
		t.Errorf("format:\n%s", out)
	}
}

func TestRunTable7SmallGrid(t *testing.T) {
	results := lmbench.Run(cells("table7/"), nil)
	// 2 PF configs × (build + boot + 2 web rows), each against Without PF.
	if len(results) != 8 {
		t.Fatalf("results = %d, want 8", len(results))
	}
	for _, r := range results {
		if r.A.MedianNs <= 0 || r.B.MedianNs <= 0 || r.A.Name != "Without PF" {
			t.Errorf("cell %+v", r)
		}
	}
	out := lmbench.RenderTable7(results)
	if !strings.Contains(out, "Apache Build") || !strings.Contains(out, "PF Full") {
		t.Errorf("format:\n%s", out)
	}
}

func TestRunFigure5SmallGrid(t *testing.T) {
	results := lmbench.Run(cells("fig5/"), nil)
	if len(results) != 4 { // 2 client counts × 2 path lengths
		t.Fatalf("cells = %d, want 4", len(results))
	}
	for _, r := range results {
		// Each round serves at least RunWeb's 40-request floor per client.
		if r.A.Name != "program" || r.B.Name != "pf-rules" || r.B.Ops < 40 || r.B.MedianNs <= 0 {
			t.Errorf("cell %+v", r)
		}
	}
}
