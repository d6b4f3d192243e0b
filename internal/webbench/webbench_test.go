package webbench

import (
	"strings"
	"testing"

	"pfirewall/internal/programs"
)

func TestDeepPath(t *testing.T) {
	cases := map[int]string{
		0: "/index.html",
		1: "/index.html",
		3: "/d/d/index.html",
		9: "/d/d/d/d/d/d/d/d/index.html",
	}
	for n, want := range cases {
		if got := DeepPath(n); got != want {
			t.Errorf("DeepPath(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestRunWebServesWithoutErrors(t *testing.T) {
	w := programs.NewWorld(programs.WorldOpts{WebTreeDepth: 4})
	a := programs.NewApache(w)
	res := RunWeb(w, a, 4, 200, DeepPath(3))
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	if res.Requests < 160 || res.ReqPerSec <= 0 || res.MeanLat <= 0 {
		t.Errorf("result = %+v", res)
	}
}

func TestRunWebMinPerClient(t *testing.T) {
	w := programs.NewWorld(programs.WorldOpts{})
	a := programs.NewApache(w)
	// Ask for fewer requests than clients: the floor kicks in.
	res := RunWeb(w, a, 8, 1, "/index.html")
	if res.Requests != 8*minPerClient {
		t.Errorf("requests = %d, want %d", res.Requests, 8*minPerClient)
	}
}

func TestFigure5WorldsBehave(t *testing.T) {
	// Program mode: symlink checks happen in Apache; pf-rules mode: R8
	// installed, Apache runs check-free.
	wp, ap := NewFigure5World("program", 3)
	if wp.Engine != nil || !ap.SymLinksIfOwnerMatch {
		t.Error("program mode misconfigured")
	}
	wr, ar := NewFigure5World("pf-rules", 3)
	if wr.Engine == nil || ar.SymLinksIfOwnerMatch {
		t.Error("pf-rules mode misconfigured")
	}
	if wr.Engine.RuleCount() != 1 {
		t.Errorf("pf-rules rule count = %d", wr.Engine.RuleCount())
	}
	// Both serve the deep path without errors.
	for _, tc := range []struct {
		w *programs.World
		a *programs.Apache
	}{{wp, ap}, {wr, ar}} {
		res := RunWeb(tc.w, tc.a, 1, 40, DeepPath(3))
		if res.Errors != 0 {
			t.Errorf("errors = %d", res.Errors)
		}
	}
}

func TestFigure5PanicsOnUnknownMode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown mode should panic")
		}
	}()
	NewFigure5World("bogus", 1)
}

func TestSymlinkOwnerRuleParses(t *testing.T) {
	w, _ := NewFigure5World("pf-rules", 1)
	_ = w // construction already installs the rule; reaching here is the test
	if !strings.Contains(SymlinkOwnerRule(), "COMPARE") {
		t.Error("rule should use the COMPARE module")
	}
}

func TestMacroConfigsMatchPaperColumns(t *testing.T) {
	want := []string{"Without PF", "PF Base", "PF Full"}
	cfgs := MacroConfigs()
	for i, c := range cfgs {
		if c.Name != want[i] {
			t.Errorf("config %d = %q", i, c.Name)
		}
	}
}

func TestProgramChecksCostMoreSyscallsThanRule(t *testing.T) {
	// The mechanism behind Figure 5: per request, the program-mode server
	// issues extra lstat/stat syscalls per component; the rule mode does
	// not. Compare syscall counts directly.
	count := func(mode string, n int) uint64 {
		w, a := NewFigure5World(mode, n)
		p := a.Spawn()
		before := w.K.SyscallCount.Load()
		if _, err := a.Serve(p, DeepPath(n)); err != nil {
			t.Fatal(err)
		}
		return w.K.SyscallCount.Load() - before
	}
	prog, rule := count("program", 5), count("pf-rules", 5)
	if prog <= rule {
		t.Errorf("program mode = %d syscalls, rule mode = %d; program must cost more", prog, rule)
	}
	// And the gap widens with path length.
	progDeep, ruleDeep := count("program", 9), count("pf-rules", 9)
	if progDeep-ruleDeep <= prog-rule {
		t.Errorf("syscall gap should grow with path length: %d vs %d", progDeep-ruleDeep, prog-rule)
	}
}
