package main

import (
	"fmt"
	"strings"

	"pfirewall/internal/kernel"
	"pfirewall/internal/obs"
	"pfirewall/internal/pf"
	"pfirewall/internal/pftables"
	"pfirewall/internal/pfverify"
	"pfirewall/internal/policyd"
	"pfirewall/internal/programs"
	"pfirewall/internal/rulegen"
	"pfirewall/internal/vfs"
	"pfirewall/internal/worldgen"
)

const (
	syscallHot  = "syscall-hot"
	policyChurn = "policy-churn"
)

// workloadNames lists the workloads. The tenant persona mix runs only
// under policy-churn, not also as a workload of its own without the
// control plane: on a host whose speed shifts for tens of seconds at a
// time, that workload's throughput spread over runs exceeded the bound,
// and policy-churn measures the same data-plane layers.
var workloadNames = []string{syscallHot, policyChurn}

// params is one run's configuration. Only the workload, seed, duration and
// trace switch come from the command line; the rest are the benchmark's
// fixed shape, smaller only in the smoke test.
type params struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool

	spec     worldgen.Spec // policy-churn's tenant world
	hotRules int           // syscall-hot rule base size
	setups   int           // set-ups timed for setup_s; the last one is kept
	outDir   string        // result and span files
}

func defaultParams(workload string, seed uint64, seconds float64, trace bool) (params, error) {
	known := false
	for _, n := range workloadNames {
		known = known || n == workload
	}
	if !known {
		return params{}, fmt.Errorf("unknown workload %q (want %s)", workload, strings.Join(workloadNames, ", "))
	}
	if !(seconds > 0) {
		return params{}, fmt.Errorf("-seconds must be positive")
	}
	// The system under test is the same for every seed — the tenant world
	// is the Medium preset as shipped, syscall-hot's rule base is generated
	// with the presets' seed — and the workload seed drives the op and
	// batch streams. Rule bases from different seeds differ in how many
	// rules reach the client, which moved syscall-hot's latency by a third.
	p := params{
		workload: workload, seed: seed, seconds: seconds, trace: trace,
		spec: worldgen.Medium, hotRules: 10000, setups: 5,
	}
	if trace {
		// The traced run reports no set-up time; one set-up suffices.
		p.setups = 1
	}
	return p, nil
}

const (
	// probePath is the file the control client's probe opens after every
	// publish; wave rules drop it at the probe's entrypoint.
	probePath = "/tmp/pfbench-probe"
	// busPath is the data client's D-Bus socket.
	busPath = "/var/run/dbus/pfbench-bus"
	// policySocket is policy-churn's control socket.
	policySocket = "pfbench-policy"
)

// deployment is one workload's system, set up and ready for the first
// timed operation: world, rules, data-client processes and, on
// policy-churn, the policy daemon and its client connection.
type deployment struct {
	workload string
	w        *programs.World
	spec     worldgen.Spec // zero on syscall-hot
	base     []string      // the rule base, for full reloads and twin engines
	baseSrc  string
	invs     []*pfverify.Invariant

	hot *hotClient // syscall-hot
	web *webClient // policy-churn

	probe *kernel.Proc // control client's probe process

	srv *policyd.Server // policy-churn
	cl  *policyd.Client
}

func (d *deployment) close() {
	if d.cl != nil {
		d.cl.Close()
	}
	if d.srv != nil {
		d.srv.Close()
	}
}

func deploy(p params) (*deployment, error) {
	cfg := pf.Optimized()
	d := &deployment{workload: p.workload}
	invs, err := pfverify.ParseInvariants("<worldgen>", worldgen.Invariants())
	if err != nil {
		return nil, err
	}
	d.invs = invs
	if p.workload == syscallHot {
		d.w = programs.NewWorld(programs.WorldOpts{PF: &cfg})
		d.base, d.baseSrc = rulegen.ScaleRuleBase(p.spec.Seed, p.hotRules), "scale.pft"
		// One transaction per rule, as an operator's rule file is loaded.
		if _, err := pftables.InstallAllFrom(d.w.Env, d.w.Engine, d.baseSrc, d.base); err != nil {
			return nil, err
		}
		if d.hot, err = newHotClient(d.w); err != nil {
			return nil, err
		}
	} else {
		// As pfctl -world deploys it: enforcing MAC, metrics registry
		// attached at its default sampling.
		gw := worldgen.Build(p.spec, programs.WorldOpts{PF: &cfg, MACEnforcing: true, Obs: obs.New()})
		d.w, d.spec = gw.World, p.spec
		d.base, d.baseSrc = worldgen.Rules(p.spec), "worldgen.pft"
		if d.web, err = newWebClient(d.w, worldgen.TenantRoot); err != nil {
			return nil, err
		}
	}

	fs := d.w.K.FS
	if _, err := fs.CreateAt(fs.MustPath("/tmp"), "pfbench-probe", probePath,
		vfs.CreateOpts{Mode: 0o644, Label: "tmp_t"}); err != nil {
		return nil, err
	}
	d.probe = d.w.NewProc(kernel.ProcSpec{UID: 0, Label: "init_t", Exec: programs.BinBash})

	if p.workload == policyChurn {
		// As fleet runs it: pfcheck gate plus the refinement gate armed
		// with the world's tenant invariants.
		if d.srv, err = policyd.Serve(d.w.K, d.w.Env, d.w.Engine, policySocket, nil); err != nil {
			return nil, err
		}
		d.srv.SetInvariants(invs)
		if d.cl, err = policyd.Dial(d.w.K, policySocket); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

// hotClient is syscall-hot's single process: sshd_t, sixteen frames deep,
// with /etc/passwd open for the fstat and read rows.
type hotClient struct {
	p  *kernel.Proc
	fd int
}

func newHotClient(w *programs.World) (*hotClient, error) {
	p := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "sshd_t", Exec: programs.BinSshd})
	for i := 0; i < 16; i++ {
		if err := p.PushFrame(programs.BinSshd, uint64(0x100+i*0x10)); err != nil {
			return nil, err
		}
	}
	if err := p.SyscallSite(programs.BinSshd, 0x300); err != nil {
		return nil, err
	}
	fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	return &hotClient{p: p, fd: fd}, nil
}

// webClient holds the four personas' long-lived processes, all driven by
// one goroutine: an Apache worker, a mod_php interpreter, an sshd that
// forks one session per login, and a D-Bus daemon with one client.
type webClient struct {
	ap    *programs.Apache
	httpd *kernel.Proc

	php     *programs.PHP
	phpProc *kernel.Proc

	sshd *kernel.Proc

	bus     *programs.DbusDaemon
	busProc *kernel.Proc
	lib     *programs.LibDbus
	busCli  *kernel.Proc
}

func newWebClient(w *programs.World, docRoot string) (*webClient, error) {
	c := &webClient{}
	c.ap = programs.NewApache(w)
	c.ap.DocRoot = docRoot
	c.httpd = c.ap.Spawn()

	c.php = programs.NewPHP(w)
	c.phpProc = c.php.Spawn()
	if err := c.phpProc.InterpPush("/var/www/scripts/index.php", 1); err != nil {
		return nil, err
	}

	c.sshd = programs.NewSshd(w).Spawn()
	for f := 0; f < 8; f++ {
		if err := c.sshd.PushFrame(programs.BinSshd, uint64(0x100+f*0x10)); err != nil {
			return nil, err
		}
	}

	c.bus = programs.NewDbusDaemon(w)
	c.bus.SocketPath = busPath
	c.busProc = c.bus.Spawn()
	if err := c.bus.Start(c.busProc); err != nil {
		return nil, err
	}
	c.lib = programs.NewLibDbus(w)
	c.busCli = w.NewProc(kernel.ProcSpec{
		UID: 0, GID: 0, Label: "init_t", Exec: programs.BinSh,
		Env: map[string]string{"DBUS_SYSTEM_BUS_ADDRESS": busPath},
	})
	// Readiness: each persona completes one operation.
	if _, err := c.php.Include(c.phpProc, "/var/www/scripts/gcalendar.php"); err != nil {
		return nil, err
	}
	if err := c.login(); err != nil {
		return nil, err
	}
	if err := c.roundTrip(); err != nil {
		return nil, err
	}
	return c, nil
}

// procs lists the long-lived processes, for the unwind replay.
func (c *webClient) procs() []*kernel.Proc {
	return []*kernel.Proc{c.httpd, c.phpProc, c.sshd, c.busProc, c.busCli}
}

// login is one sshd session: fork, exec a shell, read the password
// database, exit.
func (c *webClient) login() error {
	if err := c.sshd.SyscallSite(programs.BinSshd, 0x300); err != nil {
		return err
	}
	child, err := c.sshd.Fork()
	if err != nil {
		return err
	}
	defer child.Exit(0)
	if err := child.Execve(programs.BinSh, loginEnv); err != nil {
		return err
	}
	if err := child.SyscallSite(programs.BinSh, 0x500); err != nil {
		return err
	}
	fd, err := child.Open("/etc/passwd", kernel.O_RDONLY, 0)
	if err != nil {
		return err
	}
	return child.Close(fd)
}

// loginEnv is the session's environment; Execve copies it.
var loginEnv = map[string]string{"SHELL": programs.BinSh}

var (
	busCall  = []byte("METHOD_CALL org.freedesktop.DBus.Hello\n")
	busReply = []byte("METHOD_RETURN :1.42\n")
)

// roundTrip is one bus call: connect, accept, call, reply, close.
func (c *webClient) roundTrip() error {
	cfd, err := c.lib.Connect(c.busCli)
	if err != nil {
		return err
	}
	defer c.busCli.Close(cfd)
	afd, err := c.bus.AcceptOne(c.busProc)
	if err != nil {
		return err
	}
	defer c.busProc.Close(afd)
	if _, err := c.busCli.Send(cfd, busCall); err != nil {
		return err
	}
	if _, err := c.busProc.Recv(afd, 0); err != nil {
		return err
	}
	if _, err := c.busProc.Send(afd, busReply); err != nil {
		return err
	}
	_, err = c.busCli.Recv(cfd, 0)
	return err
}
