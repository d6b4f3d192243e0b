package pfverify

import (
	"pfirewall/internal/mac"
	"pfirewall/internal/pf"
	"pfirewall/internal/ustack"
)

// Test doubles mirroring pf's internal fakes, built on the exported
// ustack/pf surface so the differential tests can drive a real engine.

type tProc struct {
	pid   int
	sid   mac.SID
	exec  string
	mem   *ustack.Memory
	stack *ustack.Stack
	as    *ustack.AddressSpace
	ps    *pf.ProcState
}

func newTProc(pid int, sid mac.SID, exec string) *tProc {
	mem := ustack.NewMemory(4096)
	return &tProc{
		pid: pid, sid: sid, exec: exec,
		mem:   mem,
		stack: ustack.NewStack(mem, 1000),
		as:    ustack.NewAddressSpace(uint64(pid)),
		ps:    pf.NewProcState(),
	}
}

func (p *tProc) PID() int                        { return p.pid }
func (p *tProc) SubjectSID() mac.SID             { return p.sid }
func (p *tProc) ExecPath() string                { return p.exec }
func (p *tProc) UserRegs() ustack.Regs           { return p.stack.Regs }
func (p *tProc) UserMemory() *ustack.Memory      { return p.mem }
func (p *tProc) AddrSpace() *ustack.AddressSpace { return p.as }
func (p *tProc) Interp() (ustack.Lang, uint64)   { return ustack.LangNative, 0 }
func (p *tProc) StackGen() uint64                { return p.mem.Gen() + p.stack.Gen() }
func (p *tProc) PFState() *pf.ProcState          { return p.ps }

// mapping returns the base of path's mapping, mapping it on first use.
func (p *tProc) mapping(path string) uint64 {
	if m, ok := p.as.FindByPath(path); ok {
		return m.Base
	}
	return p.as.Map(path, 0).Base
}

// at positions the PC at an entrypoint (the innermost frame).
func (p *tProc) at(path string, off uint64) { p.stack.SetPC(p.mapping(path) + off) }

// call pushes an outer call frame at an entrypoint.
func (p *tProc) call(path string, off uint64) { p.stack.Call(p.mapping(path) + off) }

type tRes struct {
	sid      mac.SID
	id       uint64
	path     string
	class    mac.Class
	owner    int
	tgtOwner int
	tgtOK    bool
}

func (r *tRes) SID() mac.SID                    { return r.sid }
func (r *tRes) ID() uint64                      { return r.id }
func (r *tRes) Path() string                    { return r.path }
func (r *tRes) Class() mac.Class                { return r.class }
func (r *tRes) OwnerUID() int                   { return r.owner }
func (r *tRes) LinkTargetOwnerUID() (int, bool) { return r.tgtOwner, r.tgtOK }

// tSockRes extends tRes with the socket endpoint context.
type tSockRes struct {
	tRes
	ns      string
	nsOK    bool
	port    uint16
	portOK  bool
	peerPID int
	peerUID int
	peerGID int
	peerOK  bool
}

func (r *tSockRes) SockNS() (string, bool)          { return r.ns, r.nsOK }
func (r *tSockRes) SockPort() (uint16, bool)        { return r.port, r.portOK }
func (r *tSockRes) PeerCred() (int, int, int, bool) { return r.peerPID, r.peerUID, r.peerGID, r.peerOK }

// entryProbe is a continue-only target that captures the entrypoint list
// the engine unwound for the request.
type entryProbe struct{ entries []pf.Entrypoint }

func (p *entryProbe) TargetName() string { return "PROBE" }
func (p *entryProbe) Needs() pf.CtxKind  { return pf.CtxEntrypoints }
func (p *entryProbe) Args() string       { return "" }
func (p *entryProbe) Fire(ctx *pf.EvalCtx) pf.Action {
	eps, _ := ctx.Entrypoints()
	p.entries = append([]pf.Entrypoint(nil), eps...)
	return pf.Action{}
}

// probeEntries learns the exact entrypoint list the engine would unwind for
// req's process by running it through a throwaway engine whose only rule is
// an unconditional entrypoint probe in mangle/input.
func probeEntries(pol *mac.Policy, req *pf.Request) []pf.Entrypoint {
	probe := pf.New(pol, pf.Optimized())
	target := &entryProbe{}
	if err := probe.Append("mangle/input", &pf.Rule{Target: target}); err != nil {
		panic(err)
	}
	probe.Filter(req)
	return target.entries
}

// ctxFor translates a concrete request into the exact abstract point the
// verifier should agree with the engine on: every dimension pinned.
func ctxFor(pol *mac.Policy, req *pf.Request) *Ctx {
	c := &Ctx{
		Op:        req.Op,
		Subject:   req.Proc.SubjectSID(),
		Program:   req.Proc.ExecPath(),
		Entries:   probeEntries(pol, req),
		SyscallNR: Known(uint64(req.SyscallNR)),
		Sig:       req.Sig,
	}
	for _, a := range req.SyscallArgs {
		c.SyscallArgs = append(c.SyscallArgs, Known(a))
	}
	if req.Obj != nil {
		c.HasObject = true
		c.Object = req.Obj.SID()
		c.ObjID = Known(req.Obj.ID())
		c.Owner = KnownInt(req.Obj.OwnerUID())
		if tgt, ok := req.Obj.LinkTargetOwnerUID(); ok {
			c.TgtOwner = KnownInt(tgt)
		}
		if sr, ok := req.Obj.(pf.SockResource); ok {
			if ns, ok := sr.SockNS(); ok {
				c.NSOK, c.NS = true, ns
			}
			if port, ok := sr.SockPort(); ok {
				c.PortOK, c.Port = true, Known(uint64(port))
			}
			if pid, uid, _, ok := sr.PeerCred(); ok {
				c.PeerOK = true
				c.PeerUID, c.PeerPID = KnownInt(uid), KnownInt(pid)
			}
		}
	}
	return c
}

func testPolicy() *mac.Policy {
	p := mac.NewPolicy(mac.NewSIDTable())
	p.MarkTrusted("httpd_t", "lib_t", "shadow_t")
	p.Allow("httpd_t", "lib_t", mac.ClassFile, mac.PermRead)
	p.Allow("user_t", "tmp_t", mac.ClassFile, mac.PermWrite|mac.PermRead)
	return p
}

func sid(p *mac.Policy, l mac.Label) mac.SID { return p.SIDs().SID(l) }
