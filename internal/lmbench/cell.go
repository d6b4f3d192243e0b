// cell.go is the one measurement harness behind every pfbench number. A
// Cell names a side B and, optionally, a baseline side A; each side is a
// setup that returns op bodies. The runner measures both sides in
// interleaved rounds inside one process — alternating which side goes
// first, fencing the GC before each side, with GOMAXPROCS pinned for the
// cell — and reports each side's per-round op cost, the median paired
// ratio B/A with a bootstrap 95% confidence interval, allocs/op and
// bytes/op. Gates judge the interval, never the best round.
package lmbench

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Cell is one named measurement.
type Cell struct {
	Name string
	// A is the baseline; nil for a cell that only measures B.
	A *Side
	B Side
	// Iters is the body calls per goroutine per round. Zero sizes each
	// side from a warm-up so that one round lasts Target.
	Iters  int
	Target time.Duration
	// Rounds is the paired round count; Procs pins GOMAXPROCS for the cell
	// (0: every CPU).
	Rounds, Procs int
	// Tail makes a round's value the p99 of per-op latencies instead of
	// the mean (single-goroutine sides only).
	Tail  bool
	Gates []Gate
}

// Side is one arm of a cell: Setup builds its world and returns the op
// bodies. Setup runs once per cell, outside every timed window.
type Side struct {
	Name  string
	Setup func() Instance
}

// Instance is a side ready to run.
type Instance struct {
	// Bodies holds one op body per goroutine.
	Bodies []func()
	// Count, when set, reports a cumulative op count; a round's op count is
	// its delta rather than the body calls (for bodies that run many ops
	// per call, such as a fleet run or a web burst).
	Count func() int64
	// Round, when set, runs before each timed round, ahead of the GC
	// fence, and returns what to run after it (load that one side carries).
	Round func() (end func())
	// Done, when set, runs after the last round: it tears the side down
	// and returns the side's own counters.
	Done func() map[string]float64
}

// Gate is a pass/fail check over a cell's result.
type Gate struct {
	Name  string
	Check func(r *Result) error
}

// SideResult is one side's measurements.
type SideResult struct {
	Name string `json:"name"`
	// RoundNs is the op cost of each round (mean ns/op, or the p99 for
	// tail cells); MedianNs is their median.
	RoundNs     []float64          `json:"round_ns"`
	MedianNs    float64            `json:"median_ns"`
	Ops         int64              `json:"ops"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// CI is a median with its bootstrap 95% confidence interval.
type CI struct {
	Median float64 `json:"median"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
}

// GateResult is one gate's verdict.
type GateResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Result is one cell's row in the result schema.
type Result struct {
	Name       string      `json:"name"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Goroutines int         `json:"goroutines"`
	Rounds     int         `json:"rounds"`
	Stat       string      `json:"stat"` // "mean" or "p99"
	A          *SideResult `json:"a,omitempty"`
	B          SideResult  `json:"b"`
	// Ratio is the median paired B/A over rounds, with its interval.
	Ratio *CI          `json:"ratio,omitempty"`
	Gates []GateResult `json:"gates,omitempty"`
}

// Suite is the whole result file: every cell that ran, stamped with the
// machine it ran on.
type Suite struct {
	Fingerprint Fingerprint `json:"fingerprint"`
	Smoke       bool        `json:"smoke"`
	Cells       []Result    `json:"cells"`
}

// Failed lists the gates that failed across the suite.
func (s *Suite) Failed() []string {
	var out []string
	for _, r := range s.Cells {
		for _, g := range r.Gates {
			if !g.OK {
				out = append(out, fmt.Sprintf("%s: %s: %s", r.Name, g.Name, g.Detail))
			}
		}
	}
	return out
}

// Run measures cells in order, handing each result to emit (if non-nil)
// as soon as it lands.
func Run(cells []Cell, emit func(Result)) []Result {
	out := make([]Result, 0, len(cells))
	for _, c := range cells {
		r := measure(c)
		if emit != nil {
			emit(r)
		}
		out = append(out, r)
	}
	return out
}

// arm is one side's state while its cell runs.
type arm struct {
	Instance
	res     SideResult
	iters   int
	lat     []int64
	mallocs uint64
	bytes   uint64
}

func measure(c Cell) Result {
	procs := c.Procs
	if procs <= 0 {
		procs = runtime.NumCPU()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	rounds := c.Rounds
	if rounds < 1 {
		rounds = 1
	}

	sides := []Side{c.B}
	if c.A != nil {
		sides = []Side{*c.A, c.B}
	}
	arms := make([]*arm, len(sides))
	for i, s := range sides {
		a := &arm{Instance: s.Setup(), res: SideResult{Name: s.Name}}
		a.iters = c.Iters
		if a.iters > 0 {
			a.run(a.iters/10 + 1) // warm caches and pools
		} else {
			a.iters = a.calibrate(c.Target)
		}
		if c.Tail {
			a.lat = make([]int64, a.iters)
		}
		arms[i] = a
	}

	for r := 0; r < rounds; r++ {
		for i := range arms {
			if r%2 == 1 {
				i = len(arms) - 1 - i
			}
			arms[i].round()
		}
	}

	res := Result{
		Name:       c.Name,
		GOMAXPROCS: procs,
		Goroutines: len(arms[len(arms)-1].Bodies),
		Rounds:     rounds,
		Stat:       "mean",
	}
	if c.Tail {
		res.Stat = "p99"
	}
	for _, a := range arms {
		a.finish()
	}
	res.B = arms[len(arms)-1].res
	if c.A != nil {
		a := arms[0].res // a copy: the arm holds the side's world
		res.A = &a
		ci := bootstrap(c.Name, roundRatios(res.A.RoundNs, res.B.RoundNs), nil)
		res.Ratio = &ci
	}
	for _, g := range c.Gates {
		gr := GateResult{Name: g.Name, OK: true}
		if err := g.Check(&res); err != nil {
			gr.OK, gr.Detail = false, err.Error()
		}
		res.Gates = append(res.Gates, gr)
	}
	return res
}

// run calls every body n times, concurrently when there are several.
func (a *arm) run(n int) {
	if len(a.Bodies) == 1 {
		body := a.Bodies[0]
		for i := 0; i < n; i++ {
			body()
		}
		return
	}
	var wg sync.WaitGroup
	for _, body := range a.Bodies {
		wg.Add(1)
		go func(body func()) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				body()
			}
		}(body)
	}
	wg.Wait()
}

// calibrate warms the side up with growing batches and returns the call
// count that makes one round last about target.
func (a *arm) calibrate(target time.Duration) int {
	for n := 1; ; n *= 4 {
		t0 := time.Now()
		a.run(n)
		el := time.Since(t0)
		if el >= target/4 || n >= 1<<22 {
			return max(1, int(float64(n)*float64(target)/float64(max(el, 1))))
		}
	}
}

// round runs one timed round and records its op cost.
func (a *arm) round() {
	// The hook first, so that garbage it leaves (a replaced world) is
	// collected by the fence rather than inside the timed window.
	if a.Round != nil {
		end := a.Round()
		defer end()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var c0 int64
	if a.Count != nil {
		c0 = a.Count()
	}
	t0 := time.Now()
	if a.lat != nil {
		body := a.Bodies[0]
		for i := range a.lat {
			t := time.Now()
			body()
			a.lat[i] = int64(time.Since(t))
		}
	} else {
		a.run(a.iters)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)

	ops := int64(a.iters * len(a.Bodies))
	if a.Count != nil {
		ops = max(a.Count()-c0, 1)
	}
	v := float64(el) / float64(ops)
	if a.lat != nil {
		sort.Slice(a.lat, func(i, j int) bool { return a.lat[i] < a.lat[j] })
		v = float64(a.lat[len(a.lat)*99/100])
	}
	a.res.RoundNs = append(a.res.RoundNs, v)
	a.res.Ops += ops
	a.mallocs += m1.Mallocs - m0.Mallocs
	a.bytes += m1.TotalAlloc - m0.TotalAlloc
}

// finish fills in the side's summary and tears it down.
func (a *arm) finish() {
	a.res.MedianNs = median(a.res.RoundNs)
	a.res.AllocsPerOp = float64(a.mallocs) / float64(a.res.Ops)
	a.res.BytesPerOp = float64(a.bytes) / float64(a.res.Ops)
	if a.Done != nil {
		a.res.Extra = a.Done()
	}
}

// roundRatios pairs two sides' rounds into per-round B/A ratios.
func roundRatios(a, b []float64) []float64 {
	out := make([]float64, len(b))
	for i := range out {
		out[i] = b[i] / a[i]
	}
	return out
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// bootstrapResamples is the resample count behind every interval.
const bootstrapResamples = 2000

// bootstrap returns the median of xs with a percentile-bootstrap 95%
// interval. With den non-nil it bootstraps the ratio of medians
// median(xs)/median(den), resampling the two sets independently (for
// unpaired runs). The resampler is seeded from seed so a result file
// always reproduces the same interval.
func bootstrap(seed string, xs, den []float64) CI {
	h := fnv.New64a()
	h.Write([]byte(seed))
	rng := rand.New(rand.NewPCG(h.Sum64(), 0x9e3779b97f4a7c15))
	stat := func(xs, den []float64) float64 {
		if den == nil {
			return median(xs)
		}
		return median(xs) / median(den)
	}
	resample := func(dst, src []float64) []float64 {
		for i := range dst {
			dst[i] = src[rng.IntN(len(src))]
		}
		return dst
	}
	bx := make([]float64, len(xs))
	var bd []float64
	if den != nil {
		bd = make([]float64, len(den))
	}
	meds := make([]float64, bootstrapResamples)
	for i := range meds {
		if den != nil {
			resample(bd, den)
		}
		meds[i] = stat(resample(bx, xs), bd)
	}
	sort.Float64s(meds)
	return CI{
		Median: stat(xs, den),
		Lo:     meds[int(0.025*float64(len(meds)-1))],
		Hi:     meds[int(math.Ceil(0.975*float64(len(meds)-1)))],
	}
}

// ratioAtMost gates a paired cell on the upper end of its B/A interval:
// the cell passes only if B costs at most limit times A with 95%
// confidence.
func ratioAtMost(name string, limit float64) Gate {
	return Gate{Name: name, Check: func(r *Result) error {
		if r.Ratio == nil {
			return fmt.Errorf("no paired ratio")
		}
		if r.Ratio.Hi > limit {
			return fmt.Errorf("B/A 95%% CI upper bound %.3f (median %.3f) exceeds %.2f",
				r.Ratio.Hi, r.Ratio.Median, limit)
		}
		return nil
	}}
}
