// Package rulegen implements the paper's rule generation study
// (Section 6.3): classifying entrypoints from runtime traces as
// high-integrity-only, low-integrity-only, or both; producing Table 8
// (classification and false-positive counts versus invocation threshold);
// suggesting rules from the templates T1/T2; generating rules from known
// vulnerabilities; and the OS-distributor environment-consistency analysis
// of Section 6.3.2.
package rulegen

import (
	"fmt"
	"sort"
	"strings"

	"pfirewall/internal/obs"
	"pfirewall/internal/trace"
)

// Class is the integrity classification of an entrypoint.
type Class uint8

// Classifications.
const (
	ClassUnknown Class = iota
	ClassHighOnly
	ClassLowOnly
	ClassBoth
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassHighOnly:
		return "high"
	case ClassLowOnly:
		return "low"
	case ClassBoth:
		return "both"
	default:
		return "unknown"
	}
}

// lowIntegrity reports whether the accessed resource was
// adversary-modifiable, the paper's low-integrity criterion for
// classification (Section 6.3.1).
func lowIntegrity(sp *obs.Span) bool { return sp.Flags&obs.SpanAdvWrite != 0 }

// classify returns the class of the first n records (n<=0 means all).
func classify(recs []*obs.Span, n int) Class {
	if n <= 0 || n > len(recs) {
		n = len(recs)
	}
	if n == 0 {
		return ClassUnknown
	}
	sawHigh, sawLow := false, false
	for _, r := range recs[:n] {
		if lowIntegrity(r) {
			sawLow = true
		} else {
			sawHigh = true
		}
	}
	switch {
	case sawHigh && sawLow:
		return ClassBoth
	case sawLow:
		return ClassLowOnly
	default:
		return ClassHighOnly
	}
}

// Table8Row is one row of the paper's Table 8.
type Table8Row struct {
	Threshold int
	HighOnly  int
	LowOnly   int
	Both      int
	Rules     int
	FalsePos  int
}

// PaperThresholds are the invocation thresholds Table 8 evaluates.
var PaperThresholds = []int{0, 5, 10, 50, 100, 500, 1000, 1149, 5000}

// Table8 reproduces the paper's analysis: for each threshold t, every
// entrypoint is classified by its first max(t,1) invocations; rules are
// produced for entrypoints invoked at least t times whose class so far is
// high- or low-only; a produced rule is a false positive if the
// entrypoint's full-trace class is both (the rule would deny a valid
// access observed later in the trace).
func Table8(spans []obs.Span, thresholds []int) []Table8Row {
	byEp := trace.ByEntrypoint(spans)
	rows := make([]Table8Row, 0, len(thresholds))
	for _, t := range thresholds {
		row := Table8Row{Threshold: t}
		for _, recs := range byEp {
			soFar := classify(recs, max(t, 1))
			full := classify(recs, 0)
			switch soFar {
			case ClassHighOnly:
				row.HighOnly++
			case ClassLowOnly:
				row.LowOnly++
			case ClassBoth:
				row.Both++
			}
			if len(recs) >= max(t, 1) && (soFar == ClassHighOnly || soFar == ClassLowOnly) {
				row.Rules++
				if full == ClassBoth {
					row.FalsePos++
				}
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatTable8 renders rows in the paper's layout.
func FormatTable8(rows []Table8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-10s %-10s %-10s %-10s %-10s\n",
		"Threshold", "HighOnly", "LowOnly", "Both", "Rules", "FalsePos")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10d %-10d %-10d %-10d %-10d %-10d\n",
			r.Threshold, r.HighOnly, r.LowOnly, r.Both, r.Rules, r.FalsePos)
	}
	return b.String()
}

// Suggestion is a generated rule with its provenance.
type Suggestion struct {
	Ep      trace.EpKey
	Class   Class
	Rule    string
	Invoked int
}

// SuggestRules applies template T1 to the trace: for every entrypoint
// invoked at least threshold times and classified high-only, emit a rule
// denying it access to any label outside the set it was observed to use
// (the paper's generalization: deny all adversary-accessible resources for
// the entrypoint). Low-only entrypoints are the link-following direction
// and get the inverse suggestion.
func SuggestRules(spans []obs.Span, threshold int) []Suggestion {
	byEp := trace.ByEntrypoint(spans)
	var out []Suggestion
	for ep, recs := range byEp {
		if len(recs) < threshold {
			continue
		}
		cls := classify(recs, 0)
		if cls != ClassHighOnly && cls != ClassLowOnly {
			continue
		}
		// One rule per operation observed at the entrypoint, each confined
		// to the labels that operation legitimately used.
		byOp := map[string][]*obs.Span{}
		var ops []string
		for _, r := range recs {
			if _, ok := byOp[r.Op]; !ok {
				ops = append(ops, r.Op)
			}
			byOp[r.Op] = append(byOp[r.Op], r)
		}
		sort.Strings(ops)
		for _, op := range ops {
			labels := observedLabels(byOp[op])
			var rule string
			if cls == ClassHighOnly {
				// T1: restrict the entrypoint to the observed (trusted) labels.
				rule = fmt.Sprintf("pftables -p %s -i 0x%x -s SYSHIGH -d ~{%s} -o %s -j DROP",
					ep.Program, ep.Off, strings.Join(labels, "|"), op)
			} else {
				// Low-only entrypoints must never reach high-integrity
				// resources (link following / traversal direction).
				rule = fmt.Sprintf("pftables -p %s -i 0x%x -s SYSHIGH -d {%s} -o %s -j ACCEPT",
					ep.Program, ep.Off, strings.Join(labels, "|"), op)
			}
			out = append(out, Suggestion{Ep: ep, Class: cls, Rule: rule, Invoked: len(recs)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ep.Program != out[j].Ep.Program {
			return out[i].Ep.Program < out[j].Ep.Program
		}
		if out[i].Ep.Off != out[j].Ep.Off {
			return out[i].Ep.Off < out[j].Ep.Off
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// observedLabels returns the sorted distinct object labels in recs.
func observedLabels(recs []*obs.Span) []string {
	set := map[string]bool{}
	for _, r := range recs {
		if r.Object != "" {
			set[r.Object] = true
		}
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// VulnKind selects the rule template for a known vulnerability.
type VulnKind uint8

// Vulnerability kinds, mapping to Table 2 classes.
const (
	VulnUntrustedResource VulnKind = iota // search path / library / inclusion / squat
	VulnTOCTTOU
)

// Vuln describes a known vulnerability as logged by a testing tool such as
// STING (paper Section 6.3.1: "our testing tool logs the process
// entrypoint and the unsafe resource that led to the attack").
type Vuln struct {
	Kind    VulnKind
	Program string
	// Entrypoint of the vulnerable access (T1) or the use call (T2).
	Entrypoint uint64
	Op         string
	// CheckEntrypoint / CheckOp describe the check call for TOCTTOU (T2).
	CheckEntrypoint uint64
	CheckOp         string
	// StateKey names the T2 state slot; derived from the use entrypoint
	// when zero.
	StateKey uint64
}

// RulesFromVuln instantiates template T1 or T2 for v. The generated rules
// are generalized to deny all adversary-accessible resources (~{SYSHIGH}),
// which the paper argues cannot cause false positives because the
// (entrypoint, unsafe resource) pair is known to be exploitable.
func RulesFromVuln(v Vuln) []string {
	switch v.Kind {
	case VulnTOCTTOU:
		key := v.StateKey
		if key == 0 {
			key = v.Entrypoint
		}
		return []string{
			fmt.Sprintf("pftables -I input -i 0x%x -p %s -o %s -j STATE --set --key 0x%x --value C_INO",
				v.CheckEntrypoint, v.Program, v.CheckOp, key),
			fmt.Sprintf("pftables -i 0x%x -p %s -o %s -m STATE --key 0x%x --cmp C_INO --nequal -j DROP",
				v.Entrypoint, v.Program, v.Op, key),
		}
	default:
		return []string{
			fmt.Sprintf("pftables -I input -i 0x%x -p %s -d ~{SYSHIGH} -o %s -j DROP",
				v.Entrypoint, v.Program, v.Op),
		}
	}
}
