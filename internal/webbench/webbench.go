// Package webbench implements the paper's macro-level performance
// experiments: the ApacheBench-style web driver behind Table 7's Web rows
// and Figure 5's SymLinksIfOwnerMatch comparison, plus the Apache-build
// and boot macrobenchmarks of Table 7.
package webbench

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"pfirewall/internal/kernel"
	"pfirewall/internal/pf"
	"pfirewall/internal/programs"
	"pfirewall/internal/vfs"
)

// minPerClient keeps worker spawn costs amortized across requests.
const minPerClient = 40

// WebResult summarizes one web run.
type WebResult struct {
	Requests  int
	Clients   int
	Elapsed   time.Duration
	ReqPerSec float64
	MeanLat   time.Duration
	Errors    int
}

// RunWeb drives requests GET requests against apache with the given
// concurrency, one simulated worker process per client (Apache's prefork
// model), each exiting when its share is served. urlPath is requested
// repeatedly. Each client issues at least minPerClient requests so
// per-connection setup does not dominate.
func RunWeb(w *programs.World, apache *programs.Apache, clients, requests int, urlPath string) WebResult {
	if clients < 1 {
		clients = 1
	}
	perClient := requests / clients
	if perClient < minPerClient {
		perClient = minPerClient
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	totalErr := 0
	var totalLat time.Duration

	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker := apache.Spawn()
			// Exiting recycles the worker's address space, so repeated runs
			// on one world do not accumulate dead workers.
			defer worker.Exit(0)
			errs := 0
			var lat time.Duration
			for i := 0; i < perClient; i++ {
				t0 := time.Now()
				if _, err := apache.Serve(worker, urlPath); err != nil {
					errs++
				}
				lat += time.Since(t0)
			}
			mu.Lock()
			totalErr += errs
			totalLat += lat
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	done := perClient * clients
	return WebResult{
		Requests:  done,
		Clients:   clients,
		Elapsed:   elapsed,
		ReqPerSec: float64(done) / elapsed.Seconds(),
		MeanLat:   totalLat / time.Duration(done),
		Errors:    totalErr,
	}
}

// DeepPath returns the Figure 5 request path of length n within the
// standard world's nested web tree (n=1 is /index.html).
func DeepPath(n int) string {
	if n <= 1 {
		return "/index.html"
	}
	return strings.Repeat("/d", n-1) + "/index.html"
}

// Figure5Params are the paper's parameter grid.
var (
	Figure5Clients  = []int{1, 10, 200}
	Figure5PathLens = []int{1, 3, 5, 9}
)

// SymlinkOwnerRule is rule R8: SymLinksIfOwnerMatch in the firewall.
func SymlinkOwnerRule() string {
	return `pftables -i 0x2d637 -p ` + programs.BinApache +
		` -o LINK_READ -m COMPARE --v1 C_DAC_OWNER --v2 C_TGT_DAC_OWNER --nequal -j DROP`
}

// NewFigure5World builds a world for one Figure 5 mode. In "program" mode
// Apache performs the per-component owner checks itself and no firewall is
// attached; in "pf-rules" mode the checks are rule R8 and Apache runs with
// them disabled.
func NewFigure5World(mode string, pathLen int) (*programs.World, *programs.Apache) {
	switch mode {
	case "program":
		w := programs.NewWorld(programs.WorldOpts{WebTreeDepth: 10})
		a := programs.NewApache(w)
		a.SymLinksIfOwnerMatch = true
		return w, a
	case "pf-rules":
		cfg := pf.Optimized()
		w := programs.NewWorld(programs.WorldOpts{PF: &cfg, WebTreeDepth: 10})
		if _, err := w.InstallRules([]string{SymlinkOwnerRule()}); err != nil {
			panic(err)
		}
		a := programs.NewApache(w)
		return w, a
	default:
		panic("webbench: unknown mode " + mode)
	}
}

// --- Table 7 macrobenchmarks -------------------------------------------

// MacroConfig names one Table 7 column.
type MacroConfig struct {
	Name  string
	PF    bool
	Rules bool
}

// MacroConfigs returns Without PF / PF Base / PF Full.
func MacroConfigs() []MacroConfig {
	return []MacroConfig{
		{Name: "Without PF"},
		{Name: "PF Base", PF: true},
		{Name: "PF Full", PF: true, Rules: true},
	}
}

// NewMacroWorld builds a world for a Table 7 column, installing the
// deployment rule base for "PF Full".
func NewMacroWorld(cfg MacroConfig, fullRules []string) *programs.World {
	var opts programs.WorldOpts
	if cfg.PF {
		e := pf.Optimized()
		opts.PF = &e
	}
	opts.WebTreeDepth = 4
	w := programs.NewWorld(opts)
	if cfg.Rules {
		if _, err := w.InstallRules(fullRules); err != nil {
			panic(err)
		}
	}
	return w
}

// ApacheBuild simulates the paper's "Apache Build" macrobenchmark: a
// compile job's filesystem behaviour — stat/open/read of many sources and
// headers, creation of objects, a final link — scaled by units.
func ApacheBuild(w *programs.World, units int) error {
	cc := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "init_t", Exec: programs.BinSh, Cwd: "/tmp"})
	if err := cc.Mkdir("/tmp/build", 0o755); err != nil {
		return err
	}
	for i := 0; i < units; i++ {
		src := fmt.Sprintf("/tmp/build/src%d.c", i)
		obj := fmt.Sprintf("/tmp/build/src%d.o", i)
		fd, err := cc.Open(src, kernel.O_CREAT|kernel.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		cc.Write(fd, []byte("int main(){}"))
		cc.Close(fd)
		// The compiler stats headers and reads the source.
		for _, h := range []string{"/etc/ld.so.conf", "/lib/libc.so.6", "/etc/passwd"} {
			cc.Stat(h)
		}
		fd, err = cc.Open(src, kernel.O_RDONLY, 0)
		if err != nil {
			return err
		}
		cc.ReadAll(fd)
		cc.Close(fd)
		fd, err = cc.Open(obj, kernel.O_CREAT|kernel.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		cc.Write(fd, []byte("OBJ"))
		cc.Close(fd)
	}
	// Link step: read every object, write the binary.
	out, err := cc.Open("/tmp/build/httpd", kernel.O_CREAT|kernel.O_WRONLY, 0o755)
	if err != nil {
		return err
	}
	for i := 0; i < units; i++ {
		fd, err := cc.Open(fmt.Sprintf("/tmp/build/src%d.o", i), kernel.O_RDONLY, 0)
		if err != nil {
			return err
		}
		cc.ReadAll(fd)
		cc.Close(fd)
	}
	cc.Write(out, []byte("ELF"))
	cc.Close(out)
	// Clean up so repeated runs start fresh.
	for i := 0; i < units; i++ {
		cc.Unlink(fmt.Sprintf("/tmp/build/src%d.c", i))
		cc.Unlink(fmt.Sprintf("/tmp/build/src%d.o", i))
	}
	cc.Unlink("/tmp/build/httpd")
	cc.Rmdir("/tmp/build")
	return nil
}

// Boot simulates the paper's bootup macrobenchmark: init runs a series of
// genuine shell scripts (through the simulated bash interpreter) that
// probe configuration, load libraries through ld.so, create runtime files,
// and daemonize — exercising a variety of rules in different ways.
func Boot(w *programs.World, services int) error {
	ld := programs.NewLinker(w)
	bash := programs.NewBash(w)
	for i := 0; i < services; i++ {
		script := fmt.Sprintf("/etc/init.d/svc%d", i)
		ensureInitScript(w, script, i)
		p := bash.Spawn(script)
		// Probe config and load a shared library (ld.so work happens in
		// the daemon binary, not the script).
		p.Stat("/etc/passwd")
		if _, err := ld.LoadLibrary(p, "libssl.so"); err != nil {
			return err
		}
		// Run the script body.
		if _, err := bash.ExecScript(p, script); err != nil {
			return err
		}
		// Daemonize: fork and exit the parent.
		child, err := p.Fork()
		if err != nil {
			return err
		}
		p.Exit(0)
		child.Exit(0)
	}
	return nil
}

// ensureInitScript installs the boot script for service i on first use.
// The body is self-cleaning so Boot can repeat on one world.
func ensureInitScript(w *programs.World, path string, i int) {
	if _, ok := w.K.LookupIno(path); ok {
		return
	}
	fs := w.K.FS
	dir := fs.MustPath("/etc/init.d")
	n, err := fs.CreateAt(dir, fmt.Sprintf("svc%d", i), path, vfs.CreateOpts{Mode: 0o755})
	if err != nil {
		panic(err)
	}
	body := fmt.Sprintf(`#!/bin/sh
# start service %d
cat /etc/ld.so.conf
touch /tmp/svc%d.pid
echo 1 > /tmp/svc%d.pid
chmod 644 /tmp/svc%d.pid
rm /tmp/svc%d.pid
`, i, i, i, i, i)
	fs.WriteFile(n, []byte(body))
}

// Table7WebClients are the web concurrency levels of Table 7 (the paper's
// Web1 and Web1000 rows).
var Table7WebClients = []int{1, 1000}
