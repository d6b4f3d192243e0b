package main

import (
	"errors"
	"fmt"
	"runtime"
	"strings"

	"pfirewall/internal/kernel"
	"pfirewall/internal/worldgen"
)

// opKind is one data-client operation.
type opKind uint8

const (
	// syscall-hot: the Table 6 rows on /etc/passwd, and one round of all
	// four in a seeded order. A round is syscall-hot's op: the rows differ
	// in cost, so a median over single rows would sit on the edge between
	// the cheap and the dear half of the mix and jump between them.
	opOpenClose opKind = iota
	opStat
	opFstat
	opRead
	opRound
	// policy-churn's data client: the tenant personas.
	opServe        // apache page: asset, index, deep chain or current/ symlink hop
	opAuth         // apache password check at its auth entrypoint
	opGuard        // apache serve of tenant home content: must be dropped
	opInclude      // php include of a script
	opIncludeProbe // php include of tenant web content: must be dropped
	opLogin        // sshd session: fork, exec, open, exit
	opBus          // dbus round trip: connect, accept, send, recv
)

var opNames = [...]string{"open+close", "stat", "fstat", "read", "table6.round", "apache.serve", "apache.auth",
	"apache.guard", "php.include", "php.probe", "sshd.login", "dbus.roundtrip"}

func (k opKind) String() string { return opNames[k] }

// mustDrop reports whether the firewall must deny the operation.
func (k opKind) mustDrop() bool { return k == opGuard || k == opIncludeProbe }

// Personas, for per-persona latency.
const (
	personaApache = iota
	personaPHP
	personaSshd
	personaDbus
	personaCount
)

func (k opKind) persona() int {
	switch k {
	case opServe, opAuth, opGuard:
		return personaApache
	case opInclude, opIncludeProbe:
		return personaPHP
	case opLogin:
		return personaSshd
	case opBus:
		return personaDbus
	}
	return -1
}

// op is one generated operation; arg is the URL or include path, rows
// the order of a syscall-hot round.
type op struct {
	kind opKind
	arg  string
	rows [4]opKind
}

// streamLen is the length of a generated op stream (a power of two; the
// data client cycles through it). The tenant stream touches far more
// dentries than the dentry cache holds, so cycling does not warm it.
const streamLen = 1 << 17

// genOps generates the data client's operation stream from the seed,
// before any timing starts.
func genOps(d *deployment, seed uint64) []op {
	r := newRand(seed, 1)
	ops := make([]op, streamLen)
	if d.workload == syscallHot {
		for i := range ops {
			rows := [4]opKind{opOpenClose, opStat, opFstat, opRead}
			for j := len(rows) - 1; j > 0; j-- {
				k := r.intn(j + 1)
				rows[j], rows[k] = rows[k], rows[j]
			}
			ops[i] = op{kind: opRound, rows: rows}
		}
		return ops
	}
	spec := d.spec
	url := func(path string) string { return strings.TrimPrefix(path, worldgen.TenantRoot) }
	for i := range ops {
		t, u := r.intn(spec.Tenants), r.intn(spec.UsersPerTenant)
		switch r.intn(personaCount) {
		case personaApache:
			switch x := r.intn(16); {
			case x == 0:
				ops[i] = op{kind: opAuth}
			case x <= 2: // one apache op in eight is a guard probe
				ops[i] = op{kind: opGuard, arg: url(worldgen.HomeFilePath(t, u, r.intn(spec.HomeFilesPerUser+1)))}
			case x == 3 && spec.DeepEvery > 0 && spec.WebDepth > 0:
				ops[i] = op{kind: opServe, arg: url(spec.DeepFilePath(t, u-u%spec.DeepEvery))}
			case x == 4:
				ops[i] = op{kind: opServe, arg: url(worldgen.UserDir(t, u) + "/current/index.html")}
			default:
				ops[i] = op{kind: opServe, arg: url(worldgen.WebFilePath(t, u, r.intn(spec.WebFilesPerUser+1)))}
			}
		case personaPHP:
			switch r.intn(8) {
			case 0: // one php op in eight is an inclusion probe
				ops[i] = op{kind: opIncludeProbe, arg: worldgen.WebFilePath(t, u, 0)}
			case 1:
				ops[i] = op{kind: opInclude, arg: "/var/www/scripts/index.php"}
			default:
				ops[i] = op{kind: opInclude, arg: "/var/www/scripts/gcalendar.php"}
			}
		case personaSshd:
			ops[i] = op{kind: opLogin}
		case personaDbus:
			ops[i] = op{kind: opBus}
		}
	}
	return ops
}

// exec performs one operation through the program models and kernel.
func (d *deployment) exec(o *op) error {
	switch o.kind {
	case opRound:
		for _, k := range o.rows {
			if err := d.row(k); err != nil {
				return err
			}
		}
		return nil
	case opServe, opGuard:
		_, err := d.web.ap.Serve(d.web.httpd, o.arg)
		return err
	case opAuth:
		_, err := d.web.ap.Authenticate(d.web.httpd, "root")
		return err
	case opInclude, opIncludeProbe:
		_, err := d.web.php.Include(d.web.phpProc, o.arg)
		return err
	case opLogin:
		return d.web.login()
	case opBus:
		return d.web.roundTrip()
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

// row performs one Table 6 row.
func (d *deployment) row(k opKind) error {
	switch k {
	case opOpenClose:
		fd, err := d.hot.p.Open("/etc/passwd", kernel.O_RDONLY, 0)
		if err != nil {
			return err
		}
		return d.hot.p.Close(fd)
	case opStat:
		_, err := d.hot.p.Stat("/etc/passwd")
		return err
	case opFstat:
		_, err := d.hot.p.Fstat(d.hot.fd)
		return err
	case opRead:
		_, err := d.hot.p.Read(d.hot.fd, 1)
		return err
	}
	return fmt.Errorf("unknown row kind %d", k)
}

// resolvedPath is the absolute path the operation's final open resolves,
// for the vfs replay.
func (d *deployment) resolvedPath(o *op) string {
	switch o.kind {
	case opServe, opGuard:
		return d.web.ap.DocRoot + "/" + strings.TrimPrefix(o.arg, "/")
	case opAuth:
		return "/etc/shadow"
	case opInclude, opIncludeProbe:
		return o.arg
	case opBus:
		return busPath
	}
	return "/etc/passwd"
}

// outcome returns why the operation's result is wrong, or "".
func outcome(k opKind, err error) string {
	dropped := errors.Is(err, kernel.ErrPFDenied)
	switch {
	case k.mustDrop() && err == nil:
		return "probe accepted, must be dropped"
	case k.mustDrop() && !dropped:
		return "probe failed other than by a drop"
	case !k.mustDrop() && dropped:
		return "legitimate op denied"
	case !k.mustDrop() && err != nil:
		return "unexpected error"
	}
	return ""
}

// ledger counts attempted and failed operations and lists the first
// failures. Each goroutine keeps its own.
type ledger struct {
	attempted, failed int64
	failures          []string
}

const maxListed = 50

func (l *ledger) fail(format string, args ...any) {
	l.failed++
	if len(l.failures) < maxListed {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
}

// windowNs is the length of the windows a phase's median latency is
// taken over. The host runs in two speed states that last seconds each (on
// syscall-hot a window's median is either about 2.3 or about 4.5 us), and
// the share of time in each state differs from run to run. A median over
// the run, or over the windows' medians, sits in one state or the other
// and jumps between them when that share is near one half; the mean of the
// windows' medians moves with the share linearly. The p99 is pooled over
// the phase: syscall-hot collects garbage about every two seconds, and a
// one-second window's p99 depends on whether the window held a mark phase.
const windowNs = int64(1e9)

// window is one window's summary: its median op, its ops, and the data
// client's thread CPU time in it.
type window struct {
	p50        float64
	ops, cpuNs int64
}

// phase collects one timed stretch of the data client.
type phase struct {
	lat      *recorder               // every op's latency, for the pooled p99
	win      *recorder               // the current window's latencies
	windows  []window                // closed windows
	personas [personaCount]*recorder // per persona; nil entries are skipped
	spans    *spanLog                // harness spans, traced phase only
	led      ledger
	ops      int64
	next     int // stream position to resume from
}

func newPhase(seconds float64) *phase {
	return &phase{
		lat:     newRecorder(1 << 20),
		win:     newRecorder(1 << 15),
		windows: make([]window, 0, int(seconds)+2),
	}
}

// closeWindow summarises the current window and starts the next.
func (ph *phase) closeWindow(cpuNs int64) {
	q := ph.win.quantiles(0.5)
	if len(ph.windows) < cap(ph.windows) {
		ph.windows = append(ph.windows, window{p50: q[0], ops: ph.win.total, cpuNs: cpuNs})
	}
	ph.win.reset()
}

// summary returns the mean over windows of the window p50, the p99 pooled
// over the phase, and the ops per second of data-client CPU time over all
// windows together.
func (ph *phase) summary() (p50, p99, opsPerCPUs float64) {
	n := len(ph.windows)
	if n == 0 {
		return 0, 0, 0
	}
	var ops, cpuNs int64
	for _, w := range ph.windows {
		p50 += w.p50
		ops += w.ops
		cpuNs += w.cpuNs
	}
	return p50 / float64(n), ph.lat.quantiles(0.99)[0], float64(ops) / (float64(cpuNs) / 1e9)
}

// drive runs the closed-loop data client from stream position start until
// deadline (mono ns). One clock read per op: each op's latency runs from
// the previous op's end to its own, so the harness's per-op bookkeeping
// (no allocation unless an op fails) is charged to the op. Summarising a
// window is charged to no op. The client keeps its OS thread, so the
// thread's CPU clock is its own.
func (d *deployment) drive(ops []op, start int, deadline int64, ph *phase) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	mask := len(ops) - 1
	i := start
	cpuStart := cpuNow(clockThreadCPU)
	prev := mono()
	winStart := prev
	for prev < deadline {
		o := &ops[i&mask]
		err := d.exec(o)
		now := mono()
		lat := now - prev
		ph.lat.add(lat)
		ph.win.add(lat)
		if p := o.kind.persona(); p >= 0 && ph.personas[p] != nil {
			ph.personas[p].add(lat)
		}
		if ph.spans != nil {
			ph.spans.add(o.kind.String(), prev, now, 0, int64(i))
		}
		if err != nil || o.kind.mustDrop() {
			if why := outcome(o.kind, err); why != "" {
				ph.led.fail("op=%d kind=%s arg=%q: %s: %v", i, o.kind, o.arg, why, err)
			}
		}
		prev = now
		i++
		if now-winStart >= windowNs {
			ph.closeWindow(cpuNow(clockThreadCPU) - cpuStart)
			cpuStart = cpuNow(clockThreadCPU)
			prev = mono()
			winStart = prev
		}
	}
	// A last window shorter than half the length is dropped, unless it is
	// the only one.
	if prev-winStart >= windowNs/2 || len(ph.windows) == 0 {
		ph.closeWindow(cpuNow(clockThreadCPU) - cpuStart)
	}
	ph.led.attempted += int64(i - start)
	ph.ops = int64(i - start)
	ph.next = i
}
