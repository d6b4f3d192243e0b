package audit

import (
	"errors"
	"strings"
	"testing"

	"pfirewall/internal/kernel"
	"pfirewall/internal/obs"
	"pfirewall/internal/pf"
	"pfirewall/internal/programs"
)

func TestDenialsAggregation(t *testing.T) {
	var s []obs.Span
	for i := 0; i < 3; i++ {
		s = append(s, obs.Span{Verdict: "DROP", Program: "/lib/ld-2.15.so", Entrypoint: 0x596b,
			Op: "FILE_OPEN", Object: "tmp_t", Path: "/tmp/evil.so", Flags: obs.SpanAdvWrite})
	}
	s = append(s, obs.Span{Verdict: "DROP", Program: "/usr/bin/java", Entrypoint: 0x5d7e,
		Op: "FILE_OPEN", Object: "user_home_t", Path: "/home/user/.hotspotrc", Flags: obs.SpanAdvWrite})
	s = append(s, obs.Span{Verdict: "ACCEPT", Program: "/usr/bin/java", Entrypoint: 0x5d7e,
		Op: "FILE_OPEN", Object: "etc_t", Path: "/etc/java.conf"})

	groups := Denials(s)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2 (accepts excluded)", len(groups))
	}
	// Sorted by count descending.
	if groups[0].Count != 3 || groups[0].Key.Program != "/lib/ld-2.15.so" {
		t.Errorf("top group = %+v", groups[0])
	}
	if len(groups[0].Paths) != 1 || groups[0].Paths[0] != "/tmp/evil.so" {
		t.Errorf("paths = %v", groups[0].Paths)
	}
}

func TestSuspiciousFilter(t *testing.T) {
	groups := []DenialGroup{
		{Key: DenialKey{Program: "/a"}, Count: 5, AdvWrite: true},
		{Key: DenialKey{Program: "/b"}, Count: 5, AdvWrite: false},
		{Key: DenialKey{Program: "/c"}, Count: 1, AdvWrite: true},
	}
	sus := Suspicious(groups, 2)
	if len(sus) != 1 || sus[0].Key.Program != "/a" {
		t.Errorf("suspicious = %+v", sus)
	}
}

func TestReportRendering(t *testing.T) {
	out := Report([]DenialGroup{{
		Key:   DenialKey{Program: "/lib/ld-2.15.so", Entrypoint: 0x596b, Op: "FILE_OPEN", ObjectLbl: "tmp_t"},
		Count: 7, AdvWrite: true, Paths: []string{"/tmp/evil.so"},
	}})
	for _, want := range []string{"/lib/ld-2.15.so", "0x596b", "/tmp/evil.so", "7"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if Report(nil) != "no denials recorded\n" {
		t.Error("empty report wrong")
	}
}

// TestDenialLogEndToEnd reproduces the Icecat workflow (Section 6.1.2):
// the firewall silently blocks an attack; the denial log later reveals it.
func TestDenialLogEndToEnd(t *testing.T) {
	cfg := pf.Optimized()
	w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
	if _, err := w.InstallRules(programs.StandardRules()); err != nil {
		t.Fatal(err)
	}
	store := obs.NewSpanLog("")
	w.Engine.Log = store
	w.Engine.LogDenials = true

	// Adversary plants a Trojan library; Icecat starts with its buggy
	// environment and keeps working (trusted libs load).
	adv := w.NewUser()
	fd, err := adv.Open("/home/user/libssl.so", kernel.O_CREAT|kernel.O_RDWR, 0o755)
	if err != nil {
		t.Fatal(err)
	}
	adv.Close(fd)
	ice := programs.NewIcecat(w)
	p := ice.Spawn("/home/user")
	if _, _, err := ice.Start(p); err != nil {
		t.Fatalf("icecat should keep working: %v", err)
	}

	// The operator reviews the log afterwards.
	groups := Denials(store.Snapshot())
	if len(groups) == 0 {
		t.Fatal("the blocked library load must appear in the denial log")
	}
	sus := Suspicious(groups, 1)
	if len(sus) == 0 {
		t.Fatal("an adversary-writable denial must rank as suspicious")
	}
	found := false
	for _, g := range sus {
		for _, path := range g.Paths {
			if strings.Contains(path, "libssl.so") {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("denial log lacks the trojan path: %+v", sus)
	}
}

func TestDenialLoggingOffByDefault(t *testing.T) {
	cfg := pf.Optimized()
	w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
	w.InstallRules([]string{`pftables -o LNK_FILE_READ -d tmp_t -j DROP`})
	store := obs.NewSpanLog("")
	w.Engine.Log = store

	adv := w.NewUser()
	adv.Symlink("/etc/shadow", "/tmp/trap")
	victim := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "sshd_t", Exec: programs.BinSshd})
	if _, err := victim.Open("/tmp/trap", kernel.O_RDONLY, 0); !errors.Is(err, kernel.ErrPFDenied) {
		t.Fatalf("open: %v", err)
	}
	if store.Len() != 0 {
		t.Errorf("no records expected without LogDenials, got %d", store.Len())
	}
}

func TestDenialsDeterministicOrder(t *testing.T) {
	// Two groups with equal counts in the same program but different
	// entrypoints/ops, with paths arriving out of order: the output must
	// be identical run to run regardless of map iteration.
	build := func() []obs.Span {
		return []obs.Span{
			{Program: "/usr/bin/a", Entrypoint: 0x20, Op: "FILE_OPEN", Object: "tmp_t", Path: "/tmp/z", Verdict: "DROP"},
			{Program: "/usr/bin/a", Entrypoint: 0x10, Op: "FILE_OPEN", Object: "tmp_t", Path: "/tmp/b", Verdict: "DROP"},
			{Program: "/usr/bin/a", Entrypoint: 0x10, Op: "FILE_OPEN", Object: "tmp_t", Path: "/tmp/a", Verdict: "DROP"},
			{Program: "/usr/bin/a", Entrypoint: 0x20, Op: "FILE_OPEN", Object: "tmp_t", Path: "/tmp/y", Verdict: "DROP"},
			{Program: "/usr/bin/a", Entrypoint: 0x10, Op: "LNK_FILE_READ", Object: "tmp_t", Path: "/tmp/l", Verdict: "DROP"},
			{Program: "/usr/bin/a", Entrypoint: 0x10, Op: "LNK_FILE_READ", Object: "tmp_t", Path: "/tmp/k", Verdict: "DROP"},
			{Program: "/usr/bin/b", Entrypoint: 0x10, Op: "FILE_OPEN", Object: "etc_t", Path: "/etc/x", Verdict: "ACCEPT"},
		}
	}
	first := Report(Denials(build()))
	for i := 0; i < 20; i++ {
		if got := Report(Denials(build())); got != first {
			t.Fatalf("nondeterministic report on run %d:\n%s\n---\n%s", i, got, first)
		}
	}
	groups := Denials(build())
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3 (ACCEPT excluded)", len(groups))
	}
	// Equal counts: ordered by entrypoint then op within the program.
	if groups[0].Key.Entrypoint != 0x10 || groups[0].Key.Op != "FILE_OPEN" ||
		groups[1].Key.Entrypoint != 0x10 || groups[1].Key.Op != "LNK_FILE_READ" ||
		groups[2].Key.Entrypoint != 0x20 {
		t.Errorf("tie-break order wrong: %+v", groups)
	}
	// Paths sorted within each group.
	if len(groups[0].Paths) != 2 || groups[0].Paths[0] != "/tmp/a" || groups[0].Paths[1] != "/tmp/b" {
		t.Errorf("paths not sorted: %v", groups[0].Paths)
	}
	// TopN truncates and tolerates out-of-range n.
	if got := TopN(groups, 2); len(got) != 2 {
		t.Errorf("TopN(2) = %d groups", len(got))
	}
	if got := TopN(groups, 0); len(got) != 3 {
		t.Errorf("TopN(0) = %d groups, want all", len(got))
	}
	if got := TopN(groups, 99); len(got) != 3 {
		t.Errorf("TopN(99) = %d groups, want all", len(got))
	}
}
