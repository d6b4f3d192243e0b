// alloc.go profiles the allocation behavior of the mediated hot path: heap
// allocations and bytes per operation on a fully armed world (EPTSPC
// configuration, deployment-scale rule base). The pooled request/scratch
// design is supposed to make the steady-state mediation path
// allocation-free; TestZeroAllocHotPath holds open+close and stat at
// exactly zero, and these cells report the figure for every body.
package lmbench

import (
	"pfirewall/internal/kernel"
	"pfirewall/internal/programs"
)

// allocWorkloads are the profiled bodies. The first four exercise the
// pooled single-syscall path (expected: zero allocations in steady state);
// the mmsg row exercises the batched burst path, where one syscall's
// gauntlet setup is amortized over eight per-message checks (the receive
// side hands out data slices, so only the send burst can reach zero).
var allocWorkloads = []struct {
	name  string
	setup func(w *programs.World, p *kernel.Proc) func()
}{
	{"null", func(w *programs.World, p *kernel.Proc) func() {
		return func() { p.Getpid() }
	}},
	{"stat", func(w *programs.World, p *kernel.Proc) func() {
		return func() { p.Stat("/etc/passwd") }
	}},
	{"open+close", func(w *programs.World, p *kernel.Proc) func() {
		return func() { openClose(p) }
	}},
	{"fstat", func(w *programs.World, p *kernel.Proc) func() {
		fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0)
		if err != nil {
			panic(err)
		}
		return func() { p.Fstat(fd) }
	}},
	{"sendmmsg-8", func(w *programs.World, p *kernel.Proc) func() {
		pr := newIPCPair(w, "abstract", 7001)
		cfd, err := pr.connect()
		if err != nil {
			panic(err)
		}
		afd, err := pr.daemon.Accept(pr.sfd)
		if err != nil {
			panic(err)
		}
		burst := make([][]byte, 8)
		for i := range burst {
			burst[i] = ipcRequest
		}
		return func() {
			if _, err := pr.client.Sendmmsg(cfd, burst); err != nil {
				panic(err)
			}
			// Drain in one burst so the stream buffer stays bounded.
			if _, err := pr.daemon.Recvmmsg(afd, 8, 0); err != nil {
				panic(err)
			}
		}
	}},
}

// allocCells profile each body on the armed world. GOMAXPROCS is pinned
// to one so background goroutines (GC workers, timers) stay out of the
// allocation counters, as testing.AllocsPerRun does.
func allocCells() []Cell {
	var out []Cell
	for _, wl := range allocWorkloads {
		out = append(out, Cell{Name: "alloc/" + wl.name, Procs: 1, B: Side{Name: "armed", Setup: func() Instance {
			w := armedWorld()
			return Instance{Bodies: []func(){wl.setup(w, benchProc(w))}}
		}}})
	}
	return out
}
