// Command rulegen reproduces the paper's rule-generation study
// (Section 6.3): Table 8 over the synthetic two-week deployment trace,
// rule suggestion from traces, rule generation from known vulnerabilities,
// and the OS-distributor environment-consistency analysis.
//
// Usage:
//
//	rulegen -table8                 # classification vs invocation threshold
//	rulegen -suggest -threshold 100 # suggest rules from a trace
//	rulegen -trace file.jsonl       # use a real trace instead of synthetic
//	rulegen -vulns                  # generate rules for the known vulns E6/E7
//	rulegen -consistency            # Section 6.3.2 distributor analysis
package main

import (
	"flag"
	"fmt"
	"os"

	"pfirewall/internal/obs"
	"pfirewall/internal/programs"
	"pfirewall/internal/rulegen"
	"pfirewall/internal/trace"
)

func main() {
	table8 := flag.Bool("table8", false, "print Table 8")
	suggest := flag.Bool("suggest", false, "suggest rules from the trace")
	threshold := flag.Int("threshold", 1149, "invocation threshold for suggestions")
	traceFile := flag.String("trace", "", "JSON-lines trace file (default: synthetic deployment)")
	vulns := flag.Bool("vulns", false, "generate rules from known vulnerabilities")
	consistency := flag.Bool("consistency", false, "OS-distributor environment analysis")
	dump := flag.String("dump", "", "write the synthetic trace as JSON lines to this file")
	seed := flag.Uint64("seed", 2013, "synthetic trace seed")
	flag.Parse()

	load := func() []obs.Span {
		if *traceFile == "" {
			return rulegen.SyntheticDeployment(*seed)
		}
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rulegen:", err)
			os.Exit(1)
		}
		defer f.Close()
		s, err := trace.ReadJSON(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rulegen:", err)
			os.Exit(1)
		}
		return s
	}

	switch {
	case *dump != "":
		s := rulegen.SyntheticDeployment(*seed)
		f, err := os.Create(*dump)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rulegen:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := trace.WriteJSON(f, s); err != nil {
			fmt.Fprintln(os.Stderr, "rulegen:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d records to %s\n", len(s), *dump)
	case *table8:
		s := load()
		fmt.Printf("Table 8: entrypoint classification vs invocation threshold (%d log entries)\n", len(s))
		fmt.Print(rulegen.FormatTable8(rulegen.Table8(s, rulegen.PaperThresholds)))
	case *suggest:
		s := load()
		sugs := rulegen.SuggestRules(s, *threshold)
		fmt.Printf("# %d rule suggestions at threshold %d\n", len(sugs), *threshold)
		for _, sg := range sugs {
			fmt.Printf("# %s+0x%x: %s, %d invocations\n%s\n", sg.Ep.Program, sg.Ep.Off, sg.Class, sg.Invoked, sg.Rule)
		}
	case *vulns:
		fmt.Println("# Rules generated from known vulnerabilities (E6: dbus TOCTTOU, E7: java config)")
		for _, r := range rulegen.RulesFromVuln(rulegen.Vuln{
			Kind: rulegen.VulnTOCTTOU, Program: programs.BinDbusD,
			CheckEntrypoint: programs.EntryDbusBind, CheckOp: "SOCKET_BIND",
			Entrypoint: programs.EntryDbusChmod, Op: "SOCKET_SETATTR",
		}) {
			fmt.Println(r)
		}
		for _, r := range rulegen.RulesFromVuln(rulegen.Vuln{
			Kind: rulegen.VulnUntrustedResource, Program: programs.BinJava,
			Entrypoint: programs.EntryJavaConf, Op: "FILE_OPEN",
		}) {
			fmt.Println(r)
		}
	case *consistency:
		launches := rulegen.SyntheticLaunches(*seed)
		c, total := rulegen.ConsistentPrograms(launches)
		fmt.Printf("Section 6.3.2: %d of %d programs launched in the installed-package environment every time\n", c, total)
		fmt.Println("(paper: 232 of 318 — distributor-shipped rules are valid for these)")
	default:
		flag.Usage()
	}
}
