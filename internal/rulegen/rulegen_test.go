package rulegen

import (
	"strings"
	"testing"

	"pfirewall/internal/obs"
	"pfirewall/internal/pf"
	"pfirewall/internal/pftables"
	"pfirewall/internal/programs"
)

// mkRecs builds a record sequence for one entrypoint: 'h' = high access,
// 'l' = low access.
func mkRecs(prog string, off uint64, pattern string) []obs.Span {
	var out []obs.Span
	for i, c := range pattern {
		r := obs.Span{
			Program: prog, Entrypoint: off, Op: "FILE_OPEN",
			Object: "lib_t", Seq: uint64(i),
		}
		if c == 'l' {
			r.Object = "tmp_t"
			r.Flags = obs.SpanAdvWrite
		}
		out = append(out, r)
	}
	return out
}

func storeOf(groups ...[]obs.Span) []obs.Span {
	var s []obs.Span
	for _, g := range groups {
		s = append(s, g...)
	}
	return s
}

// ptrs points at each span, the shape classify consumes.
func ptrs(spans []obs.Span) []*obs.Span {
	out := make([]*obs.Span, len(spans))
	for i := range spans {
		out[i] = &spans[i]
	}
	return out
}

func TestClassify(t *testing.T) {
	cases := []struct {
		pattern string
		n       int
		want    Class
	}{
		{"hhhh", 0, ClassHighOnly},
		{"llll", 0, ClassLowOnly},
		{"hhl", 0, ClassBoth},
		{"hhl", 2, ClassHighOnly}, // flip not yet observed
		{"hhl", 3, ClassBoth},
		{"", 0, ClassUnknown},
	}
	for _, c := range cases {
		recs := mkRecs("/p", 1, c.pattern)
		if got := classify(ptrs(recs), c.n); got != c.want {
			t.Errorf("classify(%q, %d) = %v, want %v", c.pattern, c.n, got, c.want)
		}
	}
}

func TestTable8SmallTrace(t *testing.T) {
	// Three entrypoints: pure high (10 invocations), pure low (3),
	// flips at invocation 4 (6 invocations).
	s := storeOf(
		mkRecs("/a", 1, "hhhhhhhhhh"),
		mkRecs("/b", 2, "lll"),
		mkRecs("/c", 3, "hhhlhl"),
	)
	rows := Table8(s, []int{0, 5})

	r0 := rows[0]
	if r0.HighOnly != 2 || r0.LowOnly != 1 || r0.Both != 0 {
		t.Errorf("t=0: %+v", r0)
	}
	// All three are invoked ≥1 and classified H/L on the first
	// invocation → 3 rules; /c later flips → 1 false positive.
	if r0.Rules != 3 || r0.FalsePos != 1 {
		t.Errorf("t=0 rules/fp: %+v", r0)
	}

	r5 := rows[1]
	// By invocation 5, /c has flipped → both; /b has only 3 invocations.
	if r5.Both != 1 || r5.HighOnly != 1 || r5.LowOnly != 1 {
		t.Errorf("t=5 classes: %+v", r5)
	}
	// Rules at t=5: only /a qualifies (≥5 invocations, high-only).
	if r5.Rules != 1 || r5.FalsePos != 0 {
		t.Errorf("t=5 rules/fp: %+v", r5)
	}
}

func TestTable8SyntheticMatchesPaperShape(t *testing.T) {
	s := SyntheticDeployment(42)
	rows := Table8(s, PaperThresholds)

	want := map[int]Table8Row{
		0:    {Threshold: 0, HighOnly: 4570, LowOnly: 664, Both: 0, Rules: 5234, FalsePos: 525},
		1149: {Threshold: 1149, HighOnly: 4229, LowOnly: 480, Both: 525, FalsePos: 0},
	}
	byT := map[int]Table8Row{}
	for _, r := range rows {
		byT[r.Threshold] = r
	}

	// Exact population invariants.
	r0 := byT[0]
	if r0.HighOnly+r0.LowOnly+r0.Both != SynTotalEps {
		t.Errorf("t=0 classes sum to %d, want %d", r0.HighOnly+r0.LowOnly+r0.Both, SynTotalEps)
	}
	if r0.Both != 0 {
		t.Errorf("t=0 Both = %d, want 0 (single invocation cannot be both)", r0.Both)
	}
	if r0.Rules != 5234 || r0.FalsePos != 525 {
		t.Errorf("t=0 = %+v, want rules=5234 fp=525", r0)
	}
	if w := want[0]; r0.HighOnly != w.HighOnly || r0.LowOnly != w.LowOnly {
		t.Errorf("t=0 = %+v, want %+v", r0, w)
	}

	r1149 := byT[1149]
	if r1149.Both != 525 || r1149.FalsePos != 0 {
		t.Errorf("t=1149 = %+v, want both=525 fp=0 (the paper's safe threshold)", r1149)
	}
	if r1149.HighOnly != 4229 || r1149.LowOnly != 480 {
		t.Errorf("t=1149 classes = %+v", r1149)
	}

	// Monotonicity: Both grows, FalsePos shrinks with the threshold.
	for i := 1; i < len(rows); i++ {
		if rows[i].Both < rows[i-1].Both {
			t.Errorf("Both not monotone at %d", rows[i].Threshold)
		}
		if rows[i].FalsePos > rows[i-1].FalsePos {
			t.Errorf("FalsePos not monotone at %d", rows[i].Threshold)
		}
		if rows[i].Rules > rows[i-1].Rules {
			t.Errorf("Rules not monotone at %d", rows[i].Threshold)
		}
	}

	// The trace is deployment-scale: the paper reports ~410k entries.
	if n := len(s); n < 200000 || n > 700000 {
		t.Errorf("synthetic trace has %d entries, want roughly 410k", n)
	}

	// False positives at intermediate thresholds track the paper's values
	// exactly (they are determined by the flip-point cohorts).
	fpWant := map[int]int{5: 235, 10: 157, 50: 28, 100: 18, 500: 4, 1000: 1, 5000: 0}
	for t2, fp := range fpWant {
		if got := byT[t2].FalsePos; got != fp {
			t.Errorf("t=%d FalsePos = %d, want %d", t2, got, fp)
		}
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := SyntheticDeployment(7)
	b := SyntheticDeployment(7)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestSuggestRulesT1(t *testing.T) {
	s := storeOf(
		mkRecs("/lib/ld-2.15.so", 0x596b, strings.Repeat("h", 20)),
		mkRecs("/usr/bin/cat", 0x100, strings.Repeat("l", 20)),
		mkRecs("/usr/bin/nautilus", 0x200, "hhhhhhhhhhhhhhhhhhhl"), // both
		mkRecs("/usr/bin/rare", 0x300, "hh"),                       // under threshold
	)
	sugs := SuggestRules(s, 10)
	if len(sugs) != 2 {
		t.Fatalf("suggestions = %d, want 2: %+v", len(sugs), sugs)
	}
	var ld Suggestion
	for _, sg := range sugs {
		if sg.Ep.Program == "/lib/ld-2.15.so" {
			ld = sg
		}
	}
	if ld.Class != ClassHighOnly {
		t.Errorf("ld.so class = %v", ld.Class)
	}
	for _, frag := range []string{"-p /lib/ld-2.15.so", "-i 0x596b", "-d ~{lib_t}", "-j DROP", "-s SYSHIGH"} {
		if !strings.Contains(ld.Rule, frag) {
			t.Errorf("rule %q missing %q", ld.Rule, frag)
		}
	}
}

func TestSuggestedRulesParse(t *testing.T) {
	// Suggested rules must round-trip through the pftables parser.
	w := programs.NewWorld(programs.WorldOpts{})
	s := storeOf(mkRecs(programs.BinLdSo, 0x596b, strings.Repeat("h", 15)))
	engine := pf.New(w.K.Policy, pf.Optimized())
	for _, sg := range SuggestRules(s, 10) {
		if sg.Class != ClassHighOnly {
			continue
		}
		if _, err := pftables.Install(w.Env, engine, sg.Rule); err != nil {
			t.Errorf("suggested rule does not parse: %v\n%s", err, sg.Rule)
		}
	}
	if engine.RuleCount() == 0 {
		t.Error("no suggested rules installed")
	}
}

func TestRulesFromVulnT1(t *testing.T) {
	rules := RulesFromVuln(Vuln{
		Kind: VulnUntrustedResource, Program: "/usr/bin/java",
		Entrypoint: 0x5d7e, Op: "FILE_OPEN",
	})
	if len(rules) != 1 || !strings.Contains(rules[0], "-d ~{SYSHIGH}") {
		t.Errorf("rules = %v", rules)
	}
	w := programs.NewWorld(programs.WorldOpts{})
	engine := pf.New(w.K.Policy, pf.Optimized())
	if _, err := pftables.Install(w.Env, engine, rules[0]); err != nil {
		t.Errorf("T1 rule does not parse: %v", err)
	}
}

func TestRulesFromVulnT2(t *testing.T) {
	rules := RulesFromVuln(Vuln{
		Kind: VulnTOCTTOU, Program: "/bin/dbus-daemon",
		CheckEntrypoint: 0x3c750, CheckOp: "SOCKET_BIND",
		Entrypoint: 0x3c786, Op: "SOCKET_SETATTR",
	})
	if len(rules) != 2 {
		t.Fatalf("rules = %v", rules)
	}
	if !strings.Contains(rules[0], "STATE --set") || !strings.Contains(rules[1], "--nequal -j DROP") {
		t.Errorf("T2 rules = %v", rules)
	}
	w := programs.NewWorld(programs.WorldOpts{})
	engine := pf.New(w.K.Policy, pf.Optimized())
	for _, r := range rules {
		if _, err := pftables.Install(w.Env, engine, r); err != nil {
			t.Errorf("T2 rule does not parse: %v\n%s", err, r)
		}
	}
}

func TestConsistentPrograms(t *testing.T) {
	launches := SyntheticLaunches(3)
	consistent, total := ConsistentPrograms(launches)
	if total != 318 || consistent != 232 {
		t.Errorf("consistent/total = %d/%d, want 232/318 (paper Section 6.3.2)", consistent, total)
	}
}

func TestConsistentProgramsEdgeCases(t *testing.T) {
	launches := []Launch{
		{Program: "/bin/a", Args: "x", Env: "e"},
		{Program: "/bin/a", Args: "x", Env: "e"},
		{Program: "/bin/b", Args: "x", Env: "e"},
		{Program: "/bin/b", Args: "y", Env: "e"}, // differing args
		{Program: "/bin/c", Args: "x", Env: "e", PackageModified: true},
	}
	consistent, total := ConsistentPrograms(launches)
	if total != 3 || consistent != 1 {
		t.Errorf("got %d/%d, want 1/3", consistent, total)
	}
}

func TestClassString(t *testing.T) {
	if ClassHighOnly.String() != "high" || ClassBoth.String() != "both" ||
		ClassLowOnly.String() != "low" || ClassUnknown.String() != "unknown" {
		t.Error("Class.String mismatch")
	}
}

func TestFormatTable8(t *testing.T) {
	out := FormatTable8([]Table8Row{{Threshold: 1149, HighOnly: 4229, LowOnly: 480, Both: 525, Rules: 30}})
	if !strings.Contains(out, "1149") || !strings.Contains(out, "4229") {
		t.Errorf("format: %q", out)
	}
}
