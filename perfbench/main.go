// Command perfbench is the repository benchmark. It drives two seeded
// workloads through the simulation's packages, checks the outcome of every
// operation, and prints each end-to-end metric by name with its unit. With
// -trace 1 it instead runs the same workload with the span tracer armed and
// prints the per-layer ledger.
//
//	bash perfbench/run.sh --workload policy-churn --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"op_p50_us":{"value":12.3,"unit":"us"},...}}
//
// Lines before it repeat every metric with its sample count, the machine
// fingerprint, and each failed operation. The same data, plus the spans of
// a traced run, is written under -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench-out", "directory for result and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	p, err := defaultParams(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		return err
	}
	p.outDir = *out
	rep, err := run(p)
	if err != nil {
		return err
	}
	return emit(stdout, p, rep)
}

// emit prints the human-readable lines, writes the result file, and ends
// with the one-line JSON result.
func emit(w io.Writer, p params, rep *report) error {
	fp := fingerprint()
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%t\n", p.workload, p.seed, p.seconds, p.trace)
	fmt.Fprintf(w, "# fingerprint %s\n", fp)
	for _, m := range rep.metrics {
		fmt.Fprintf(w, "%-36s %14.6g %-6s samples=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	frac := 0.0
	if rep.attempted > 0 {
		frac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "%-36s %14.6g %-6s failed=%d attempted=%d\n", "fail_frac", frac, "ratio", rep.failed, rep.attempted)
	for _, f := range rep.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	if n := rep.failed - int64(len(rep.failures)); n > 0 {
		fmt.Fprintf(w, "FAIL ... %d more not listed\n", n)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	if rep.spansPath != "" {
		fmt.Fprintf(w, "# spans %s\n", rep.spansPath)
	}

	metrics := make(map[string]any, len(rep.metrics))
	for _, m := range rep.metrics {
		metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	if err := writeResult(p, rep, fp, frac); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writeResult stores the full result — fingerprint, every metric with its
// sample count, and the failure list — next to the spans.
func writeResult(p params, rep *report, fp machine, frac float64) error {
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return err
	}
	doc := map[string]any{
		"workload":    p.workload,
		"seed":        p.seed,
		"seconds":     p.seconds,
		"trace":       p.trace,
		"fingerprint": fp,
		"metrics":     rep.metrics,
		"attempted":   rep.attempted,
		"failed":      rep.failed,
		"fail_frac":   frac,
		"failures":    rep.failures,
		"spans":       rep.spansPath,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", p.workload, p.seed, btoi(p.trace))
	return os.WriteFile(filepath.Join(p.outDir, name), append(b, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
