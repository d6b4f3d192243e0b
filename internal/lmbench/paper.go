// paper.go declares the cells behind the paper's other cost figures:
// Table 7's macrobenchmarks against "Without PF", Figure 4's open variants
// against the bare open, and Figure 5's rule R8 against Apache's own
// SymLinksIfOwnerMatch checks. The bodies and worlds are webbench's and
// safeopen's.
package lmbench

import (
	"fmt"

	"pfirewall/internal/programs"
	"pfirewall/internal/safeopen"
	"pfirewall/internal/webbench"
)

// table7Cells measures each macrobenchmark under PF Base and PF Full
// against Without PF; one op is one whole build, boot or web burst.
func table7Cells(scale int, webClients []int, rules []string, rounds int) []Cell {
	type macro struct {
		name string
		body func(w *programs.World) func()
	}
	benches := []macro{
		{"Apache Build", func(w *programs.World) func() {
			return func() {
				if err := webbench.ApacheBuild(w, scale); err != nil {
					panic(fmt.Sprintf("apache build: %v", err))
				}
			}
		}},
		{"Boot", func(w *programs.World) func() {
			return func() {
				if err := webbench.Boot(w, scale/2+1); err != nil {
					panic(fmt.Sprintf("boot: %v", err))
				}
			}
		}},
	}
	for _, c := range webClients {
		benches = append(benches, macro{fmt.Sprintf("Web%d", c), func(w *programs.World) func() {
			a := programs.NewApache(w)
			return func() {
				if res := webbench.RunWeb(w, a, c, scale*10, "/index.html"); res.Errors > 0 {
					panic(fmt.Sprintf("web%d: %d errors", c, res.Errors))
				}
			}
		}})
	}
	cfgs := webbench.MacroConfigs()
	side := func(m macro, cfg webbench.MacroConfig) Side {
		return Side{Name: cfg.Name, Setup: func() Instance {
			return Instance{Bodies: []func(){m.body(webbench.NewMacroWorld(cfg, rules))}}
		}}
	}
	var out []Cell
	for _, m := range benches {
		base := side(m, cfgs[0])
		for _, cfg := range cfgs[1:] {
			out = append(out, Cell{Name: "table7/" + m.name + "/" + cfg.Name, A: &base, B: side(m, cfg), Rounds: rounds})
		}
	}
	return out
}

// figure4Cells measures every open variant against the bare open at each
// path length; fig4/open/n=N is the A/A calibration cell.
func figure4Cells(lens []int) []Cell {
	side := func(v safeopen.Variant, n int) Side {
		return Side{Name: v.Name, Setup: func() Instance {
			_, p, path := safeopen.Figure4World(n, v.NeedsPF)
			return Instance{Bodies: []func(){func() {
				fd, err := v.Open(p, path)
				if err != nil {
					panic(fmt.Sprintf("fig4 %s n=%d: %v", v.Name, n, err))
				}
				p.Close(fd)
			}}}
		}}
	}
	var out []Cell
	vs := safeopen.Variants()
	for _, v := range vs {
		for _, n := range lens {
			base := side(vs[0], n)
			out = append(out, Cell{Name: fmt.Sprintf("fig4/%s/n=%d", v.Name, n), A: &base, B: side(v, n)})
		}
	}
	return out
}

// figure5Cells measures Apache with rule R8 ("pf-rules") against Apache
// doing the owner checks itself ("program"); one op is one request.
func figure5Cells(clients, lens []int, rounds int) []Cell {
	side := func(mode string, c, n int) Side {
		return Side{Name: mode, Setup: func() Instance {
			w, a := webbench.NewFigure5World(mode, n)
			var served int64
			return Instance{
				Bodies: []func(){func() {
					// Zero requests: RunWeb's per-client floor sizes the burst.
					res := webbench.RunWeb(w, a, c, 0, webbench.DeepPath(n))
					if res.Errors > 0 {
						panic(fmt.Sprintf("fig5 %s c=%d n=%d: %d errors", mode, c, n, res.Errors))
					}
					served += int64(res.Requests)
				}},
				Count: func() int64 { return served },
			}
		}}
	}
	var out []Cell
	for _, c := range clients {
		for _, n := range lens {
			base := side("program", c, n)
			out = append(out, Cell{Name: fmt.Sprintf("fig5/c=%d/n=%d", c, n), A: &base, B: side("pf-rules", c, n), Rounds: rounds})
		}
	}
	return out
}
