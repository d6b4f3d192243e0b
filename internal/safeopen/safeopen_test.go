package safeopen

import (
	"errors"
	"testing"

	"pfirewall/internal/kernel"
	"pfirewall/internal/pf"
	"pfirewall/internal/programs"
)

func newWorld(t *testing.T, withPF bool) *programs.World {
	t.Helper()
	var w *programs.World
	if withPF {
		cfg := pf.Optimized()
		w = programs.NewWorld(programs.WorldOpts{PF: &cfg})
		if _, err := w.InstallRules(SafeOpenPFRules()); err != nil {
			t.Fatal(err)
		}
	} else {
		w = programs.NewWorld(programs.WorldOpts{})
	}
	return w
}

func victim(w *programs.World) *kernel.Proc {
	return w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "sshd_t", Exec: programs.BinSshd})
}

// mkTmpFile creates /tmp/<name> as the adversary and closes it.
func mkTmpFile(t *testing.T, adv *kernel.Proc, name string) {
	t.Helper()
	fd, err := adv.Open("/tmp/"+name, kernel.O_CREAT|kernel.O_RDWR, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	adv.Close(fd)
}

func TestAllVariantsOpenPlainFile(t *testing.T) {
	w := newWorld(t, true)
	adv := w.NewUser()
	mkTmpFile(t, adv, "plain")
	v := victim(w)
	for name, open := range map[string]func(*kernel.Proc, string) (int, error){
		"open": Open, "open_nofollow": OpenNoFollow, "open_nolink": OpenNoLink,
		"open_race": OpenRace, "safe_open": SafeOpen, "safe_open_pf": SafeOpenPF,
	} {
		fd, err := open(v, "/tmp/plain")
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		v.Close(fd)
	}
}

func TestNoLinkVariantsRejectSymlink(t *testing.T) {
	w := newWorld(t, false)
	adv := w.NewUser()
	if err := adv.Symlink("/etc/passwd", "/tmp/ln"); err != nil {
		t.Fatal(err)
	}
	v := victim(w)
	if _, err := OpenNoLink(v, "/tmp/ln"); !errors.Is(err, ErrIsSymlink) {
		t.Errorf("open_nolink: %v", err)
	}
	if _, err := OpenRace(v, "/tmp/ln"); !errors.Is(err, ErrIsSymlink) {
		t.Errorf("open_race: %v", err)
	}
	if _, err := OpenNoFollow(v, "/tmp/ln"); err == nil {
		t.Error("open_nofollow should fail on symlink")
	}
	// The bare open happily follows — the baseline vulnerability.
	fd, err := Open(v, "/tmp/ln")
	if err != nil {
		t.Errorf("bare open: %v", err)
	} else {
		v.Close(fd)
	}
}

// flipToSymlink registers a hook that swaps /tmp/f to a symlink at the
// victim's first open syscall — the classic TOCTTOU interleaving.
func flipToSymlink(w *programs.World, v, adv *kernel.Proc, target string) func() {
	flipped := false
	id := w.K.AddPreSyscallHook(func(p *kernel.Proc, nr kernel.Syscall) {
		if p == v && nr == kernel.NrOpen && !flipped {
			flipped = true
			adv.Unlink("/tmp/f")
			adv.Symlink(target, "/tmp/f")
		}
	})
	return func() { w.K.RemoveHook(id) }
}

func TestOpenNoLinkLosesTheRace(t *testing.T) {
	w := newWorld(t, false)
	adv := w.NewUser()
	mkTmpFile(t, adv, "f")
	v := victim(w)
	defer flipToSymlink(w, v, adv, "/etc/shadow")()

	fd, err := OpenNoLink(v, "/tmp/f")
	if err != nil {
		t.Fatalf("the race should succeed against open_nolink: %v", err)
	}
	st, _ := v.Fstat(fd)
	if lbl := w.K.Policy.SIDs().Label(st.SID); lbl != "shadow_t" {
		t.Errorf("race reached %q, want shadow_t", lbl)
	}
}

func TestOpenRaceDetectsTheFlip(t *testing.T) {
	w := newWorld(t, false)
	adv := w.NewUser()
	mkTmpFile(t, adv, "f")
	v := victim(w)
	defer flipToSymlink(w, v, adv, "/etc/shadow")()

	if _, err := OpenRace(v, "/tmp/f"); !errors.Is(err, ErrRace) {
		t.Errorf("open_race: %v, want ErrRace", err)
	}
}

// TestCryogenicSleep reproduces Olaf Kirch's attack: the adversary arranges
// for the opened object to reuse the checked inode number, defeating the
// fstat comparison; only the second lstat (or the firewall) catches it.
func TestCryogenicSleep(t *testing.T) {
	w := newWorld(t, false)
	adv := w.NewUser()
	mkTmpFile(t, adv, "f")
	v := victim(w)

	flipped := false
	id := w.K.AddPreSyscallHook(func(p *kernel.Proc, nr kernel.Syscall) {
		if p == v && nr == kernel.NrOpen && !flipped {
			flipped = true
			// Free the checked inode number, then create the decoy target
			// so it recycles that exact number, then plant the symlink.
			adv.Unlink("/tmp/f")
			fd, _ := adv.Open("/tmp/decoy", kernel.O_CREAT|kernel.O_RDWR, 0o666)
			adv.Close(fd)
			adv.Symlink("/tmp/decoy", "/tmp/f")
		}
	})
	defer w.K.RemoveHook(id)

	// Stage 1: verify the deception — lstat ino equals the post-open fstat
	// ino, so the naive fstat-only comparison passes.
	lst, err := v.Lstat("/tmp/f")
	if err != nil {
		t.Fatal(err)
	}
	fd, err := v.Open("/tmp/f", kernel.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fst, _ := v.Fstat(fd)
	if fst.Ino != lst.Ino {
		t.Fatalf("cryogenic setup failed: ino %d vs %d", fst.Ino, lst.Ino)
	}
	// Stage 2: the second lstat sees a symlink with a different inode —
	// exactly what open_race's final check detects.
	lst2, _ := v.Lstat("/tmp/f")
	if lst2.Ino == fst.Ino {
		t.Fatal("second lstat should observe the planted symlink")
	}
	v.Close(fd)
}

func TestOpenRaceDefeatsCryogenicSleep(t *testing.T) {
	w := newWorld(t, false)
	adv := w.NewUser()
	mkTmpFile(t, adv, "f")
	v := victim(w)

	flipped := false
	id := w.K.AddPreSyscallHook(func(p *kernel.Proc, nr kernel.Syscall) {
		if p == v && nr == kernel.NrOpen && !flipped {
			flipped = true
			adv.Unlink("/tmp/f")
			fd, _ := adv.Open("/tmp/decoy", kernel.O_CREAT|kernel.O_RDWR, 0o666)
			adv.Close(fd)
			adv.Symlink("/tmp/decoy", "/tmp/f")
		}
	})
	defer w.K.RemoveHook(id)

	if _, err := OpenRace(v, "/tmp/f"); !errors.Is(err, ErrRace) {
		t.Errorf("open_race vs cryogenic sleep: %v, want ErrRace", err)
	}
}

func TestSafeOpenRejectsCrossOwnerLink(t *testing.T) {
	w := newWorld(t, false)
	adv := w.NewUser()
	if err := adv.Symlink("/etc/passwd", "/tmp/cross"); err != nil {
		t.Fatal(err)
	}
	v := victim(w)
	if _, err := SafeOpen(v, "/tmp/cross"); !errors.Is(err, ErrOwnerMismatch) {
		t.Errorf("safe_open: %v, want ErrOwnerMismatch", err)
	}
}

func TestSafeOpenAllowsAdversaryOwnLinks(t *testing.T) {
	// Chari et al.: a link is fine when it points within its owner's files.
	w := newWorld(t, false)
	adv := w.NewUser()
	mkTmpFile(t, adv, "mine")
	if err := adv.Symlink("/tmp/mine", "/tmp/tomine"); err != nil {
		t.Fatal(err)
	}
	v := victim(w)
	fd, err := SafeOpen(v, "/tmp/tomine")
	if err != nil {
		t.Fatalf("safe_open own-file link: %v", err)
	}
	v.Close(fd)
}

func TestSafeOpenPFBlocksCrossOwnerLink(t *testing.T) {
	w := newWorld(t, true)
	adv := w.NewUser()
	if err := adv.Symlink("/etc/passwd", "/tmp/cross"); err != nil {
		t.Fatal(err)
	}
	v := victim(w)
	if _, err := SafeOpenPF(v, "/tmp/cross"); !errors.Is(err, kernel.ErrPFDenied) {
		t.Errorf("safe_open_pf: %v, want ErrPFDenied", err)
	}
	// Own-file links still work (no false positive).
	mkTmpFile(t, adv, "mine")
	if err := adv.Symlink("/tmp/mine", "/tmp/tomine"); err != nil {
		t.Fatal(err)
	}
	fd, err := SafeOpenPF(v, "/tmp/tomine")
	if err != nil {
		t.Fatalf("safe_open_pf own-file link: %v", err)
	}
	v.Close(fd)
}

func TestSafeOpenPFImmuneToRace(t *testing.T) {
	// The firewall-assisted variant resolves atomically in the kernel:
	// the flip happens before the single open, so the symlink is seen and
	// blocked; there is no check/use window at all.
	w := newWorld(t, true)
	adv := w.NewUser()
	mkTmpFile(t, adv, "f")
	v := victim(w)
	defer flipToSymlink(w, v, adv, "/etc/shadow")()

	if _, err := SafeOpenPF(v, "/tmp/f"); !errors.Is(err, kernel.ErrPFDenied) {
		t.Errorf("safe_open_pf under race: %v, want ErrPFDenied", err)
	}
}

func TestSyscallCostOrdering(t *testing.T) {
	// The premise of Figure 4: each stronger program-side variant costs
	// more system calls, while safe_open_pf costs the same as bare open.
	w := newWorld(t, true)
	adv := w.NewUser()
	adv.Mkdir("/tmp/a", 0o777)
	adv.Mkdir("/tmp/a/b", 0o777)
	fd, err := adv.Open("/tmp/a/b/f", kernel.O_CREAT|kernel.O_RDWR, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	adv.Close(fd)
	v := victim(w)

	cost := func(open func(*kernel.Proc, string) (int, error)) uint64 {
		before := w.K.SyscallCount.Load()
		fd, err := open(v, "/tmp/a/b/f")
		if err != nil {
			t.Fatal(err)
		}
		after := w.K.SyscallCount.Load()
		v.Close(fd)
		return after - before
	}

	open := cost(Open)
	nolink := cost(OpenNoLink)
	race := cost(OpenRace)
	safe := cost(SafeOpen)
	pfv := cost(SafeOpenPF)

	if !(open < nolink && nolink < race && race < safe) {
		t.Errorf("cost ordering violated: open=%d nolink=%d race=%d safe=%d", open, nolink, race, safe)
	}
	if pfv != open {
		t.Errorf("safe_open_pf costs %d syscalls, want %d (same as open)", pfv, open)
	}
	// Chari et al.: at least 4 extra syscalls per component for safe_open.
	if safe < open+4*3 {
		t.Errorf("safe_open = %d syscalls; expected ≥ %d for 3 components", safe, open+12)
	}
}

func TestSafeOpenCostGrowsLinearlyWithPathLength(t *testing.T) {
	// The mechanism behind Figure 4, asserted on syscall counts rather
	// than wall time: safe_open's extra cost per component is constant
	// (≥4), so total syscalls grow linearly in n while safe_open_PF stays
	// flat at the bare-open count.
	countFor := func(n int, open func(*kernel.Proc, string) (int, error), withPF bool) uint64 {
		w, p, path := Figure4World(n, withPF)
		before := w.K.SyscallCount.Load()
		fd, err := open(p, path)
		if err != nil {
			t.Fatal(err)
		}
		p.Close(fd)
		return w.K.SyscallCount.Load() - before
	}

	s1 := countFor(1, SafeOpen, false)
	s4 := countFor(4, SafeOpen, false)
	s7 := countFor(7, SafeOpen, false)
	// Linear growth: equal increments per component band.
	if (s4-s1) != (s7-s4) || s4 <= s1 {
		t.Errorf("safe_open syscalls: n=1:%d n=4:%d n=7:%d (want linear)", s1, s4, s7)
	}
	p1 := countFor(1, SafeOpenPF, true)
	p7 := countFor(7, SafeOpenPF, true)
	if p1 != p7 {
		t.Errorf("safe_open_PF syscalls: n=1:%d n=7:%d (want constant)", p1, p7)
	}
}
