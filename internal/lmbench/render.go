// render.go turns result rows into text: one line per cell, and the
// paper's own layouts for Table 6, Table 7 and Figures 4 and 5.
package lmbench

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// FormatResult renders one cell as a line: each side's median op cost,
// the paired ratio with its interval, the allocation rate, the extras and
// any failed gate.
func FormatResult(r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s", r.Name)
	if r.A != nil {
		fmt.Fprintf(&b, " A %11.0f  B %11.0f  B/A %6.3f [%6.3f,%6.3f]",
			r.A.MedianNs, r.B.MedianNs, r.Ratio.Median, r.Ratio.Lo, r.Ratio.Hi)
	} else {
		fmt.Fprintf(&b, "               B %11.0f %29s", r.B.MedianNs, "")
	}
	fmt.Fprintf(&b, " %s  %7.2f allocs/op %9.1f B/op  g=%d procs=%d n=%d",
		r.Stat, r.B.AllocsPerOp, r.B.BytesPerOp, r.Goroutines, r.GOMAXPROCS, r.Rounds)
	keys := make([]string, 0, len(r.B.Extra))
	for k := range r.B.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%.6g", k, r.B.Extra[k])
	}
	for _, g := range r.Gates {
		if !g.OK {
			fmt.Fprintf(&b, "  GATE FAILED (%s: %s)", g.Name, g.Detail)
		}
	}
	return b.String()
}

// Render returns the paper-layout view of every paper table and figure the
// results cover.
func Render(rs []Result) string {
	var b strings.Builder
	for _, v := range []struct {
		title  string
		render func([]Result) string
	}{
		{"Table 6: microbenchmarks (ns/op, % over DISABLED)", RenderTable6},
		{"Table 7: macrobenchmarks (elapsed per run, % over Without PF)", RenderTable7},
		{"Figure 4: open variants vs path length (ns/op, % over bare open)", RenderFigure4},
		{"Figure 5: Apache SymLinksIfOwnerMatch, req/s gain of rule R8 over program checks", RenderFigure5},
	} {
		if s := v.render(rs); s != "" {
			fmt.Fprintf(&b, "%s\n%s\n", v.title, s)
		}
	}
	return b.String()
}

// RenderTable6 lays the table6 cells out as the paper does: one row per
// workload, one column per config, overhead against DISABLED.
func RenderTable6(rs []Result) string {
	var cols []string
	for _, c := range Configs() {
		cols = append(cols, c.Name)
	}
	return grid(rs, "table6", "Syscall", "", cols, 24, func(ns, ratio float64) string {
		return fmt.Sprintf("%.0fns (%+.1f%%)", ns, (ratio-1)*100)
	})
}

// RenderTable7 lays the table7 cells out as the paper does, with the
// Without PF column read from the cells' baseline side.
func RenderTable7(rs []Result) string {
	return grid(rs, "table7", "Benchmark", "Without PF", []string{"PF Base", "PF Full"}, 26, func(ns, ratio float64) string {
		return fmt.Sprintf("%v (%+.1f%%)", time.Duration(ns).Round(time.Microsecond), (ratio-1)*100)
	})
}

// RenderFigure4 lays the fig4 cells out as the paper's bar groups: one row
// per variant, one column per path length.
func RenderFigure4(rs []Result) string {
	return grid(rs, "fig4", "variant", "", nil, 20, func(ns, ratio float64) string {
		return fmt.Sprintf("%.0fns (%+.0f%%)", ns, (ratio-1)*100)
	})
}

// RenderFigure5 lays the fig5 cells out by client count and path length;
// an entry is the request-rate gain of rule R8 over the program checks.
func RenderFigure5(rs []Result) string {
	return grid(rs, "fig5", "clients", "", nil, 14, func(ns, ratio float64) string {
		return fmt.Sprintf("%+.1f%%", (1/ratio-1)*100)
	})
}

// grid renders the cells named family/row/col as a table. cols fixes the
// column order (nil: first-seen order); a non-empty base adds a leading
// column read from each row's baseline side.
func grid(rs []Result, family, corner, base string, cols []string, width int, entry func(ns, ratio float64) string) string {
	var rows []string
	cells := map[[2]string]Result{}
	seen := map[string]bool{}
	fixed := cols != nil
	for _, r := range rs {
		parts := strings.Split(r.Name, "/")
		if len(parts) != 3 || parts[0] != family || r.Ratio == nil {
			continue
		}
		row, col := parts[1], parts[2]
		if !seen[row] {
			seen[row] = true
			rows = append(rows, row)
		}
		if !fixed && !slices.Contains(cols, col) {
			cols = append(cols, col)
		}
		cells[[2]string{row, col}] = r
	}
	if len(rows) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", corner)
	if base != "" {
		fmt.Fprintf(&b, "%-*s", width, base)
	}
	for _, c := range cols {
		fmt.Fprintf(&b, "%-*s", width, c)
	}
	b.WriteString("\n")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-14s", row)
		if base != "" {
			for _, c := range cols {
				if r, ok := cells[[2]string{row, c}]; ok {
					fmt.Fprintf(&b, "%-*s", width, entry(r.A.MedianNs, 1))
					break
				}
			}
		}
		for _, c := range cols {
			s := "-"
			if r, ok := cells[[2]string{row, c}]; ok {
				s = entry(r.B.MedianNs, r.Ratio.Median)
			}
			fmt.Fprintf(&b, "%-*s", width, s)
		}
		b.WriteString("\n")
	}
	return b.String()
}
