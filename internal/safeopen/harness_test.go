package safeopen_test

import (
	"fmt"
	"strings"
	"testing"

	"pfirewall/internal/lmbench"
	"pfirewall/internal/safeopen"
)

// figure4 runs the registry's Figure 4 cells at iters calls per round.
func figure4(iters int) []lmbench.Result {
	var cells []lmbench.Cell
	for _, c := range lmbench.Cells(true) {
		if strings.HasPrefix(c.Name, "fig4/") {
			c.Iters, c.Rounds = iters, 1
			cells = append(cells, c)
		}
	}
	return lmbench.Run(cells, nil)
}

func TestFigure4Harness(t *testing.T) {
	// Each variant completes at every paper path length against the bare
	// open, and the harness labels cells correctly.
	rs := figure4(10)
	if len(rs) != len(safeopen.Variants())*len(safeopen.PaperPathLens) {
		t.Fatalf("cells = %d", len(rs))
	}
	i := 0
	for _, v := range safeopen.Variants() {
		for _, n := range safeopen.PaperPathLens {
			r := rs[i]
			i++
			if r.Name != fmt.Sprintf("fig4/%s/n=%d", v.Name, n) || r.B.Name != v.Name || r.A.Name != "open" ||
				r.B.MedianNs <= 0 || r.A.MedianNs <= 0 {
				t.Errorf("cell %+v", r)
			}
		}
	}
}

func TestFigure4Format(t *testing.T) {
	out := lmbench.RenderFigure4(figure4(5))
	for _, want := range []string{"safe_open", "safe_open_PF", "open_race", "n=7"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
}
