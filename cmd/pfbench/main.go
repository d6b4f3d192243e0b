// Command pfbench runs the benchmark suite: every measurement behind the
// paper's performance tables and figures (Section 6.2) and the
// beyond-paper scaling, overhead and control-plane measurements, as cells
// of one harness (internal/lmbench). A cell pairs a side B against an
// optional baseline A over interleaved rounds and reports the median
// paired ratio with a bootstrap 95% interval; gates judge that interval.
//
//	pfbench                          # the whole suite
//	pfbench -smoke                   # every cell at its smoke size
//	pfbench -run 'table6/open'       # cells whose name matches
//	pfbench -json BENCH.json         # write the results, machine-stamped
//	pfbench -compare OLD.json NEW.json
//
// The run prints one line per cell as it lands, then Tables 6 and 7 and
// Figures 4 and 5 in the paper's layouts, and exits 1 if any gate failed.
// -compare bootstraps NEW/OLD per cell from the stored rounds — the
// per-round B/A ratios of a paired cell, the raw B rounds of an unpaired
// one — and lists the cells whose interval excludes 1; it refuses files
// measured on different machines. -cpuprofile, -memprofile and -trace capture
// pprof/runtime-trace artifacts of whatever ran.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"runtime/trace"

	"pfirewall/internal/lmbench"
)

func main() {
	os.Exit(run())
}

func run() int {
	pattern := flag.String("run", "", "run only the cells whose name matches this regular expression")
	smoke := flag.Bool("smoke", false, "run every cell at its smoke size")
	jsonPath := flag.String("json", "", "write the results as JSON to this file")
	compare := flag.Bool("compare", false, "compare two result files given as arguments: OLD.json NEW.json")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	tracePath := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "pfbench: -compare wants two files: OLD.json NEW.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	re, err := regexp.Compile(*pattern)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pfbench: -run:", err)
		return 2
	}
	var cells []lmbench.Cell
	for _, c := range lmbench.Cells(*smoke) {
		if re.MatchString(c.Name) {
			cells = append(cells, c)
		}
	}
	if len(cells) == 0 {
		fmt.Fprintf(os.Stderr, "pfbench: no cell matches %q\n", *pattern)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail("cpuprofile:", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail("cpuprofile:", err)
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fail("trace:", err)
		}
		if err := trace.Start(f); err != nil {
			return fail("trace:", err)
		}
		defer func() { trace.Stop(); f.Close() }()
	}

	suite := lmbench.Suite{Fingerprint: lmbench.Machine(), Smoke: *smoke}
	fmt.Println(suite.Fingerprint)
	suite.Cells = lmbench.Run(cells, func(r lmbench.Result) { fmt.Println(lmbench.FormatResult(r)) })
	fmt.Println()
	fmt.Print(lmbench.Render(suite.Cells))

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fail("memprofile:", err)
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		f.Close()
		if err != nil {
			return fail("memprofile:", err)
		}
	}
	if *jsonPath != "" {
		if err := lmbench.WriteSuite(*jsonPath, suite); err != nil {
			return fail("write:", err)
		}
		fmt.Println("wrote", *jsonPath)
	}
	if failed := suite.Failed(); len(failed) > 0 {
		for _, f := range failed {
			fmt.Fprintln(os.Stderr, "pfbench: gate failed:", f)
		}
		return 1
	}
	fmt.Println("gates: ok")
	return 0
}

// compareFiles prints every cell that moved between two result files, and fails when their fingerprints differ.
func compareFiles(oldPath, newPath string) int {
	old, err := lmbench.ReadSuite(oldPath)
	if err != nil {
		return fail("compare:", err)
	}
	cur, err := lmbench.ReadSuite(newPath)
	if err != nil {
		return fail("compare:", err)
	}
	changes, err := lmbench.Compare(old, cur)
	if err != nil {
		return fail("compare:", err)
	}
	for _, c := range changes {
		if c.Paired {
			fmt.Printf("%-40s B/A %8.3f -> %8.3f     NEW/OLD %6.3f [%6.3f,%6.3f]\n",
				c.Cell, c.Old, c.New, c.Ratio.Median, c.Ratio.Lo, c.Ratio.Hi)
		} else {
			fmt.Printf("%-40s ns %9.0f -> %9.0f  NEW/OLD %6.3f [%6.3f,%6.3f] unpaired\n",
				c.Cell, c.Old, c.New, c.Ratio.Median, c.Ratio.Lo, c.Ratio.Hi)
		}
	}
	fmt.Printf("%d cells changed (95%% CI of NEW/OLD excludes 1; paired cells compare B/A, unpaired ones raw ns)\n", len(changes))
	return 0
}

func fail(prefix string, err error) int {
	fmt.Fprintln(os.Stderr, "pfbench:", prefix, err)
	return 1
}
