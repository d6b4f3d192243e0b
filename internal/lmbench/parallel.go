// parallel.go measures multi-core scaling of the mediated hot path: g
// goroutines, each driving its own process (per-process syscall state is
// single-flow by design), hammer the shared read structures — the vfs
// dentry cache, the MAC adversary snapshot, the kernel hook table and the
// PF ruleset — all of which are published through atomic pointers so the
// read side takes no locks. On multicore hardware throughput should scale
// near-linearly with the fan-out; on a single core it stays flat.
package lmbench

import (
	"fmt"

	"pfirewall/internal/kernel"
	"pfirewall/internal/programs"
)

// ParallelFanout is the goroutine grid for the scaling measurement.
var ParallelFanout = []int{1, 4, 8}

// parallelWorkloads are the hot-path operations measured: the mediated
// open+close pair (dcache + two hooks + ruleset walk) and stat (one hook).
var parallelWorkloads = []struct {
	Name string
	Body func(p *kernel.Proc)
}{
	{Name: "open+close", Body: openClose},
	{Name: "stat", Body: func(p *kernel.Proc) {
		if _, err := p.Stat("/etc/passwd"); err != nil {
			panic(err)
		}
	}},
}

func openClose(p *kernel.Proc) {
	fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0)
	if err != nil {
		panic(err)
	}
	p.Close(fd)
}

// procBodies starts g benchmark processes on w and returns one body per
// process, each warmed once so per-process context caches are filled.
func procBodies(w *programs.World, g int, body func(p *kernel.Proc)) []func() {
	bodies := make([]func(), g)
	for i := range bodies {
		p := benchProc(w)
		body(p)
		bodies[i] = func() { body(p) }
	}
	return bodies
}

// parallelCells measures each workload at each fan-out on a fully armed
// world (EPTSPC configuration with the deployment-scale rule base). One
// op is one body call on any goroutine, so ns/op is inverse throughput.
func parallelCells(fanout []int) []Cell {
	var out []Cell
	for _, wl := range parallelWorkloads {
		for _, g := range fanout {
			out = append(out, Cell{Name: fmt.Sprintf("parallel/%s/g=%d", wl.Name, g), B: Side{
				Name: "armed",
				Setup: func() Instance {
					return Instance{Bodies: procBodies(armedWorld(), g, wl.Body)}
				},
			}})
		}
	}
	return out
}
