package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// report is one run's outcome.
type report struct {
	metrics   []metric
	attempted int64
	failed    int64
	failures  []string
	spansPath string
	notes     []string
}

func (r *report) add(name, unit string, value float64, samples int64) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: value, Samples: samples})
}

func (r *report) count(l *ledger) {
	r.attempted += l.attempted
	r.failed += l.failed
	for _, f := range l.failures {
		if len(r.failures) < maxListed {
			r.failures = append(r.failures, f)
		}
	}
}

// controlCycles is how many cycles are generated; a run that outlasts
// them wraps around.
const controlCycles = 1024

// publishShare is the part of a syscall-hot run spent in the publish
// window after the data window; it holds over a hundred reloads, enough
// for a p90.
const publishShare = 0.35

// setupBudget is the set-up time after which no more set-ups are added.
const setupBudget = 3 * time.Second

// warmupNs is how long the data client runs before the data window.
const warmupNs = int64(1e9)

func run(p params) (*report, error) {
	// Set up several times and keep the last: setup_s is the median of
	// their process CPU times, which steal does not inflate. Set-up runs
	// alone, so that is its whole cost, collection included. Cheap set-ups
	// repeat until setupBudget of wall time has passed, up to four times
	// as often, so a set-up of a fraction of a second still gets a median
	// over enough samples to hold still.
	var setups []time.Duration
	var spent time.Duration
	var d *deployment
	for i := 0; i < p.setups || (spent < setupBudget && i < 4*p.setups); i++ {
		if d != nil {
			d.close()
			d = nil
		}
		runtime.GC()
		t0, c0 := time.Now(), cpuNow(clockProcessCPU)
		var err error
		if d, err = deploy(p); err != nil {
			return nil, err
		}
		setups = append(setups, time.Duration(cpuNow(clockProcessCPU)-c0))
		spent += time.Since(t0)
	}
	defer d.close()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMiB := float64(ms.HeapAlloc) / (1 << 20)

	ops := genOps(d, p.seed)
	cycles := genCycles(p.seed, controlCycles)
	if p.trace {
		return traced(p, d, ops, cycles)
	}

	rep := &report{}
	ph := newPhase(p.seconds)
	ctl := d.controller(cycles)
	// policy-churn publishes concurrently for the whole run; elsewhere the
	// data window is followed by a publish window, so publishing never
	// overlaps the data client.
	runNs := int64(p.seconds * 1e9)
	dataNs := runNs
	if d.workload != policyChurn {
		dataNs = int64(float64(runNs) * (1 - publishShare))
	}
	// Warm up: the data client alone for a second, checked but not timed.
	warm := newPhase(1)
	d.drive(ops, 0, mono()+warmupNs, warm)
	rep.count(&warm.led)
	start := mono()
	stop := d.startChurn(ctl, start+dataNs)
	d.drive(ops, warm.next, start+dataNs, ph)
	stop()
	if d.workload != policyChurn {
		ctl.runUntil(start + runNs)
	}
	rep.count(&ph.led)
	rep.count(&ctl.led)
	d.checkConservation(rep)

	p50, p99, opsPerCPUs := ph.summary()
	pq := ctl.publish.quantiles(0.5, 0.9)
	rep.add("setup_s", "s", medianDur(setups).Seconds(), int64(len(setups)))
	rep.add("ops_per_cpu_s", "1/s", opsPerCPUs, ph.ops)
	rep.add("op_p50_us", "us", p50/1e3, ph.ops)
	rep.add("op_p99_us", "us", p99/1e3, ph.ops)
	rep.add("heap_mib", "MiB", heapMiB, 1)
	rep.add("publish_p50_ms", "ms", pq[0]/1e6, int64(ctl.publish.n))
	rep.add("publish_p90_ms", "ms", pq[1]/1e6, int64(ctl.publish.n))
	rep.notes = append(rep.notes, fmt.Sprintf("op_p50_us is the mean of %d one-second windows' medians; ops_per_cpu_s (per second of data-client thread CPU time) and op_p99_us are pooled over the data window; setup_s is process CPU time", len(ph.windows)))
	if ctl.dp != nil && ctl.dp.vetoes > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("%d publishes vetoed by the gate and re-sent unchecked", ctl.dp.vetoes))
	}
	return rep, nil
}

// startChurn starts policy-churn's control client on its own goroutine
// until deadline; the returned func waits for it. Elsewhere it is a no-op.
func (d *deployment) startChurn(ctl *controller, deadline int64) (wait func()) {
	if d.workload != policyChurn {
		return func() {}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctl.runUntil(deadline)
	}()
	return wg.Wait
}

// checkConservation fails the run if the engine lost a verdict: every
// request must have been accepted or dropped. Call with all clients idle.
func (d *deployment) checkConservation(rep *report) {
	st := &d.w.Engine.Stats
	req, acc, drop := st.Requests.Load(), st.Accepts.Load(), st.Drops.Load()
	l := ledger{attempted: 1}
	if req != acc+drop {
		l.fail("verdict conservation: %d requests != %d accepts + %d drops", req, acc, drop)
	}
	rep.count(&l)
}
