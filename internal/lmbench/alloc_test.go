package lmbench

import (
	"errors"
	"testing"

	"pfirewall/internal/kernel"
	"pfirewall/internal/pf"
	"pfirewall/internal/programs"
)

// TestZeroAllocHotPath is the allocation regression tripwire: on a fully
// armed world (Optimized engine, deployment-scale rule base) the mediated
// open+close and stat paths must not allocate at all in steady state. Any
// new heap traffic on these paths — a request built outside the pool, an
// escape in the resolver, a formatted string in a context module — fails
// this test before it ever shows up as a latency regression.
func TestZeroAllocHotPath(t *testing.T) {
	cfg := pf.Optimized()
	w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
	if _, err := w.InstallRules(SyntheticRuleBase(FullRuleBaseSize)); err != nil {
		t.Fatal(err)
	}
	p := benchProc(w)

	bodies := []struct {
		name string
		body func()
	}{
		{"open+close", func() {
			fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0)
			if err != nil {
				panic(err)
			}
			p.Close(fd)
		}},
		{"stat", func() {
			if _, err := p.Stat("/etc/passwd"); err != nil {
				panic(err)
			}
		}},
	}
	for _, b := range bodies {
		// Warm the scratch pools, the dcache, and the entrypoint cache.
		for i := 0; i < 64; i++ {
			b.body()
		}
		if avg := testing.AllocsPerRun(200, b.body); avg != 0 {
			t.Errorf("%s: %.2f allocs/op on the armed hot path, want 0", b.name, avg)
		}
	}
}

// TestZeroAllocTracingDisabled pins the decision-provenance gate's cheap
// side: with the metrics layer attached but TraceEvery zero, the span
// machinery must cost nothing on the armed open+close path — the only
// admissible residue is the single tracer-nil branch per filter site.
func TestZeroAllocTracingDisabled(t *testing.T) {
	w := traceWorld(true, DefaultObsSampleEvery, 0)
	p := benchProc(w)
	body := func() {
		fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0)
		if err != nil {
			panic(err)
		}
		p.Close(fd)
	}
	for i := 0; i < 64; i++ {
		body()
	}
	if avg := testing.AllocsPerRun(200, body); avg != 0 {
		t.Errorf("open+close with tracing disabled: %.2f allocs/op, want 0", avg)
	}
}

// TestSampledTracingAllocBounded keeps the sampled side honest: with every
// mediated syscall carrying a provenance span (TraceEvery 1, the most
// expensive setting), steady-state span capture must stay allocation-free
// — the span lives by value in the mediation scratch state and the flight
// ring is preallocated.
func TestSampledTracingAllocBounded(t *testing.T) {
	w := traceWorld(true, DefaultObsSampleEvery, 1)
	p := benchProc(w)
	body := func() {
		fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0)
		if err != nil {
			panic(err)
		}
		p.Close(fd)
	}
	for i := 0; i < 64; i++ {
		body()
	}
	if avg := testing.AllocsPerRun(200, body); avg != 0 {
		t.Errorf("open+close with TraceEvery=1: %.2f allocs/op, want 0", avg)
	}
}

// TestZeroAllocDropPath extends the tripwire to the DROP verdict: a
// denied open must not allocate either, with metrics attached (the PF
// flight recorder fills a span for every DROP) and with every syscall
// traced on top. Allocations are measured after the flight ring has
// wrapped, so a recorder that allocated per eviction would show here.
func TestZeroAllocDropPath(t *testing.T) {
	setups := []struct {
		name       string
		traceEvery int
	}{
		{"metrics", 0},
		{"metrics+trace", 1},
	}
	for _, s := range setups {
		w := traceWorld(true, DefaultObsSampleEvery, s.traceEvery)
		if _, err := w.InstallRules([]string{`pftables -I input -s sshd_t -d shadow_t -o FILE_OPEN -j DROP`}); err != nil {
			t.Fatal(err)
		}
		p := benchProc(w)
		body := func() {
			if _, err := p.Open("/etc/shadow", kernel.O_RDONLY, 0); !errors.Is(err, kernel.ErrPFDenied) {
				panic(err)
			}
		}
		// Past the 256-slot flight ring, so every measured drop evicts.
		for i := 0; i < 512; i++ {
			body()
		}
		if avg := testing.AllocsPerRun(200, body); avg != 0 {
			t.Errorf("%s: denied open: %.2f allocs/op, want 0", s.name, avg)
		}
	}
}
