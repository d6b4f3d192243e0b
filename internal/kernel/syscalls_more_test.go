package kernel

import (
	"errors"
	"testing"

	"pfirewall/internal/mac"
	"pfirewall/internal/pf"
	"pfirewall/internal/vfs"
)

func TestMkdirRmdirSyscalls(t *testing.T) {
	k := newWorld(t)
	user := newUser(k)
	if err := user.Mkdir("/tmp/dir", 0o755); err != nil {
		t.Fatal(err)
	}
	st, err := user.Stat("/tmp/dir")
	if err != nil || st.Type != vfs.TypeDir || st.UID != 1000 {
		t.Fatalf("mkdir result: %+v, %v", st, err)
	}
	if err := user.Mkdir("/tmp/dir", 0o755); !errors.Is(err, vfs.ErrExist) {
		t.Errorf("duplicate mkdir: %v", err)
	}
	// Non-writable parent.
	if err := user.Mkdir("/etc/dir", 0o755); !errors.Is(err, vfs.ErrPerm) {
		t.Errorf("mkdir in /etc: %v", err)
	}
	if err := user.Rmdir("/tmp/dir"); err != nil {
		t.Fatal(err)
	}
	if _, err := user.Stat("/tmp/dir"); !errors.Is(err, vfs.ErrNotExist) {
		t.Error("dir survived rmdir")
	}
	if err := user.Rmdir("/tmp/absent"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("rmdir absent: %v", err)
	}
}

func TestLinkSyscall(t *testing.T) {
	k := newWorld(t)
	user := newUser(k)
	fd, _ := user.Open("/tmp/orig", O_CREAT|O_RDWR, 0o600)
	user.Write(fd, []byte("data"))
	user.Close(fd)
	if err := user.Link("/tmp/orig", "/tmp/alias"); err != nil {
		t.Fatal(err)
	}
	a, _ := user.Stat("/tmp/orig")
	b, err := user.Stat("/tmp/alias")
	if err != nil || a.Ino != b.Ino {
		t.Errorf("hard link inodes: %d vs %d, %v", a.Ino, b.Ino, err)
	}
	if err := user.Link("/tmp/orig", "/tmp/alias"); !errors.Is(err, vfs.ErrExist) {
		t.Errorf("duplicate link: %v", err)
	}
	if err := user.Link("/tmp/absent", "/tmp/x"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("link from absent: %v", err)
	}
	// Cannot link into a non-writable directory.
	if err := user.Link("/tmp/orig", "/etc/alias"); !errors.Is(err, vfs.ErrPerm) {
		t.Errorf("link into /etc: %v", err)
	}
}

func TestChmodChownSyscalls(t *testing.T) {
	k := newWorld(t)
	user := newUser(k)
	fd, _ := user.Open("/tmp/mine", O_CREAT|O_RDWR, 0o600)
	user.Close(fd)
	if err := user.Chmod("/tmp/mine", 0o644); err != nil {
		t.Fatal(err)
	}
	st, _ := user.Stat("/tmp/mine")
	if st.Mode != 0o644 {
		t.Errorf("mode = %o", st.Mode)
	}
	// Only the owner (or root) may chmod.
	other := k.NewProc(ProcSpec{UID: 1001, GID: 1001, Label: "user_t", Exec: "/bin/sh"})
	if err := other.Chmod("/tmp/mine", 0o777); !errors.Is(err, vfs.ErrPerm) {
		t.Errorf("non-owner chmod: %v", err)
	}
	// Chown is root-only.
	if err := user.Chown("/tmp/mine", 0, 0); !errors.Is(err, vfs.ErrPerm) {
		t.Errorf("non-root chown: %v", err)
	}
	root := newRoot(k, "sshd_t", "/usr/sbin/sshd")
	if err := root.Chown("/tmp/mine", 33, 33); err != nil {
		t.Fatal(err)
	}
	st, _ = user.Stat("/tmp/mine")
	if st.UID != 33 || st.GID != 33 {
		t.Errorf("owner = %d:%d", st.UID, st.GID)
	}
}

func TestChmodThroughSymlinkFollows(t *testing.T) {
	// chmod(2) follows symlinks — the property E6's squat abuses.
	k := newWorld(t)
	user := newUser(k)
	fd, _ := user.Open("/tmp/target", O_CREAT|O_RDWR, 0o600)
	user.Close(fd)
	user.Symlink("/tmp/target", "/tmp/link")
	if err := user.Chmod("/tmp/link", 0o666); err != nil {
		t.Fatal(err)
	}
	st, _ := user.Lstat("/tmp/target")
	if st.Mode != 0o666 {
		t.Errorf("target mode = %o, want 0666", st.Mode)
	}
}

// adapterRec is what adapterProbe captures of one filtered request.
type adapterRec struct {
	Prefix     string
	Path       string
	ResourceID uint64
}

// adapterProbe is a continue-only target that records the request's
// resource as the kernel adapter presents it to the firewall.
type adapterProbe struct {
	prefix string
	seen   *[]adapterRec
}

func (a *adapterProbe) TargetName() string { return "PROBE" }
func (a *adapterProbe) Needs() pf.CtxKind  { return 0 }
func (a *adapterProbe) Args() string       { return "" }
func (a *adapterProbe) Fire(ctx *pf.EvalCtx) pf.Action {
	obj := ctx.Req.Obj
	*a.seen = append(*a.seen, adapterRec{Prefix: a.prefix, Path: obj.Path(), ResourceID: obj.ID()})
	return pf.Action{}
}

func TestResourceAdapters(t *testing.T) {
	// Exercise the pf.Resource adapters via a recording engine.
	k := newWorld(t)
	engine := pf.New(k.Policy, pf.Optimized())
	var seen []adapterRec
	engine.Append("input", &pf.Rule{Ops: pf.NewOpSet(pf.OpLnkFileRead), Target: &adapterProbe{"link", &seen}})
	engine.Append("input", &pf.Rule{Ops: pf.NewOpSet(pf.OpSignalDeliver), Target: &adapterProbe{"sig", &seen}})
	k.AttachPF(engine)

	user := newUser(k)
	user.Symlink("/etc/passwd", "/tmp/ln")
	root := newRoot(k, "sshd_t", "/usr/sbin/sshd")
	if _, err := root.Open("/tmp/ln", O_RDONLY, 0); err != nil {
		t.Fatal(err)
	}
	var linkRec *adapterRec
	for i := range seen {
		if seen[i].Prefix == "link" {
			linkRec = &seen[i]
		}
	}
	if linkRec == nil {
		t.Fatal("no link-read record")
	}
	if linkRec.Path != "/tmp/ln" || linkRec.ResourceID == 0 {
		t.Errorf("record = %+v", *linkRec)
	}

	// Signal resource adapter: id is the signal number, class process.
	victim := newRoot(k, "sshd_t", "/usr/sbin/sshd")
	victim.Sigaction(SIGALRM, func(*Proc, int) {})
	seen = nil
	if err := root.Kill(victim.PID(), SIGALRM); err != nil {
		t.Fatal(err)
	}
	var sigRec *adapterRec
	for i := range seen {
		if seen[i].Prefix == "sig" {
			sigRec = &seen[i]
		}
	}
	if sigRec == nil {
		t.Fatal("no signal record")
	}
	if sigRec.ResourceID != SIGALRM {
		t.Errorf("signal resource id = %d, want %d", sigRec.ResourceID, SIGALRM)
	}
}

func TestProcAccessors(t *testing.T) {
	k := newWorld(t)
	p := newRoot(k, "sshd_t", "/usr/sbin/sshd")
	if p.Kernel() != k {
		t.Error("Kernel accessor")
	}
	if p.Label() != "sshd_t" {
		t.Errorf("Label = %q", p.Label())
	}
	p.SetLabel("httpd_t")
	if p.Label() != "httpd_t" {
		t.Error("SetLabel failed")
	}
	if p.Cwd() != k.FS.Root() {
		t.Error("default cwd should be /")
	}
	if got := mac.Label(p.Label()); got != "httpd_t" {
		t.Errorf("label type round trip: %q", got)
	}
}

func TestPushPopFrame(t *testing.T) {
	k := newWorld(t)
	p := newRoot(k, "sshd_t", "/usr/sbin/sshd")
	if err := p.PushFrame("/usr/sbin/sshd", 0x10); err != nil {
		t.Fatal(err)
	}
	if err := p.PushFrame("/usr/sbin/sshd", 0x20); err != nil {
		t.Fatal(err)
	}
	if err := p.PopFrame(); err != nil {
		t.Fatal(err)
	}
	if err := p.PushFrame("/not/mapped", 0x1); err == nil {
		t.Error("PushFrame into unmapped binary should fail")
	}
	if err := p.SyscallSite("/not/mapped", 0x1); err == nil {
		t.Error("SyscallSite into unmapped binary should fail")
	}
}

func TestInterpGuards(t *testing.T) {
	k := newWorld(t)
	p := newRoot(k, "sshd_t", "/usr/sbin/sshd")
	if err := p.InterpPush("x", 1); err == nil {
		t.Error("InterpPush on non-interpreter should fail")
	}
	if err := p.InterpPop(); err == nil {
		t.Error("InterpPop on non-interpreter should fail")
	}
}

func TestBindErrors(t *testing.T) {
	k := newWorld(t)
	user := newUser(k)
	// Bind over an existing name fails.
	fd, _ := user.Open("/tmp/taken", O_CREAT|O_RDWR, 0o600)
	user.Close(fd)
	if _, err := user.Bind("/tmp/taken", 0o666); !errors.Is(err, vfs.ErrExist) {
		t.Errorf("bind over file: %v", err)
	}
	// Bind in a non-writable directory fails.
	if _, err := user.Bind("/etc/sock", 0o666); !errors.Is(err, vfs.ErrPerm) {
		t.Errorf("bind in /etc: %v", err)
	}
}

func TestRenamePFRules(t *testing.T) {
	// Rename is mediated: a syscallbegin rule can veto it.
	k := newWorld(t)
	engine := pf.New(k.Policy, pf.Optimized())
	engine.Append("syscallbegin", &pf.Rule{
		Matches: []pf.Match{&pf.SyscallArgsMatch{Arg: 0, Equal: uint64(NrRename)}},
		Target:  pf.Drop(),
	})
	k.AttachPF(engine)
	user := newUser(k)
	fd, _ := user.Open("/tmp/a", O_CREAT|O_RDWR, 0o600)
	user.Close(fd)
	if err := user.Rename("/tmp/a", "/tmp/b"); !errors.Is(err, ErrPFDenied) {
		t.Errorf("rename: %v, want ErrPFDenied", err)
	}
}
