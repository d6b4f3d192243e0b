// Package audit analyzes Process Firewall denial logs — the operational
// loop the paper describes: administrators review what the firewall
// silently blocked (that is how the authors noticed the unknown Icecat
// vulnerability, Section 6.1.2) and distinguish real attacks from rules
// that need refinement.
package audit

import (
	"fmt"
	"sort"
	"strings"

	"pfirewall/internal/obs"
)

// DenialKey groups denials by who was blocked doing what to what.
type DenialKey struct {
	Program    string
	Entrypoint uint64
	Op         string
	ObjectLbl  string
}

// DenialGroup is one aggregated denial pattern.
type DenialGroup struct {
	Key   DenialKey
	Count int
	// Paths are the distinct resource names involved (capped).
	Paths []string
	// AdvWrite reports whether the blocked resources were
	// adversary-writable — strong evidence the denial was a real attack
	// rather than a false positive.
	AdvWrite bool
}

// maxPathsPerGroup caps the example paths carried per group.
const maxPathsPerGroup = 5

// Denials extracts and aggregates the DROP records among spans.
func Denials(spans []obs.Span) []DenialGroup {
	groups := map[DenialKey]*DenialGroup{}
	for i := range spans {
		r := &spans[i]
		if r.Verdict != "DROP" {
			continue
		}
		k := DenialKey{Program: r.Program, Entrypoint: r.Entrypoint, Op: r.Op, ObjectLbl: r.Object}
		g, ok := groups[k]
		if !ok {
			g = &DenialGroup{Key: k}
			groups[k] = g
		}
		g.Count++
		if r.Flags&obs.SpanAdvWrite != 0 {
			g.AdvWrite = true
		}
		if r.Path != "" && len(g.Paths) < maxPathsPerGroup {
			dup := false
			for _, p := range g.Paths {
				if p == r.Path {
					dup = true
					break
				}
			}
			if !dup {
				g.Paths = append(g.Paths, r.Path)
			}
		}
	}
	out := make([]DenialGroup, 0, len(groups))
	for _, g := range groups {
		sort.Strings(g.Paths)
		out = append(out, *g)
	}
	// Fully deterministic order: count descending, then the whole key —
	// two groups can share a program (different entrypoints or ops), and
	// map iteration order must never leak into operator-facing output.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		a, b := out[i].Key, out[j].Key
		if a.Program != b.Program {
			return a.Program < b.Program
		}
		if a.Entrypoint != b.Entrypoint {
			return a.Entrypoint < b.Entrypoint
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.ObjectLbl < b.ObjectLbl
	})
	return out
}

// TopN returns the first n groups (all of them when n <= 0 or exceeds the
// group count) — the summary slice pfctl -stats embeds.
func TopN(groups []DenialGroup, n int) []DenialGroup {
	if n <= 0 || n > len(groups) {
		n = len(groups)
	}
	return groups[:n]
}

// Report renders the denial groups as the operator-facing summary.
func Report(groups []DenialGroup) string {
	if len(groups) == 0 {
		return "no denials recorded\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-28s %-12s %-26s %-10s %s\n",
		"count", "program", "entrypoint", "operation", "advwrite", "example paths")
	for _, g := range groups {
		fmt.Fprintf(&b, "%-8d %-28s 0x%-10x %-26s %-10v %s\n",
			g.Count, g.Key.Program, g.Key.Entrypoint, g.Key.Op, g.AdvWrite,
			strings.Join(g.Paths, ", "))
	}
	return b.String()
}

// Suspicious filters groups down to likely real attacks: repeated denials
// of adversary-writable resources.
func Suspicious(groups []DenialGroup, minCount int) []DenialGroup {
	var out []DenialGroup
	for _, g := range groups {
		if g.AdvWrite && g.Count >= minCount {
			out = append(out, g)
		}
	}
	return out
}
