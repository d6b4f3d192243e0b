package safeopen

import (
	"fmt"
	"strings"

	"pfirewall/internal/kernel"
	"pfirewall/internal/pf"
	"pfirewall/internal/programs"
	"pfirewall/internal/vfs"
)

// This file is the Figure 4 harness: the latency of each open variant as a
// function of pathname length n (the paper plots n = 1, 4, 7; the average
// path length on their system was 2.3).

// Variant is one line of Figure 4.
type Variant struct {
	Name string
	// NeedsPF marks the firewall-assisted variant.
	NeedsPF bool
	Open    func(p *kernel.Proc, path string) (int, error)
}

// Variants returns the six Figure 4 lines in paper order.
func Variants() []Variant {
	return []Variant{
		{Name: "open", Open: Open},
		{Name: "open_nfflag", Open: OpenNoFollow},
		{Name: "open_nolink", Open: OpenNoLink},
		{Name: "open_race", Open: OpenRace},
		{Name: "safe_open", Open: SafeOpen},
		{Name: "safe_open_PF", NeedsPF: true, Open: SafeOpenPF},
	}
}

// PaperPathLens are the path lengths Figure 4 plots.
var PaperPathLens = []int{1, 4, 7}

// Figure4World builds a world containing a target file at path depth n
// and returns the victim process and the path. withPF installs the
// safe_open-equivalent rules.
func Figure4World(n int, withPF bool) (*programs.World, *kernel.Proc, string) {
	var w *programs.World
	if withPF {
		cfg := pf.Optimized()
		w = programs.NewWorld(programs.WorldOpts{PF: &cfg})
		if _, err := w.InstallRules(SafeOpenPFRules()); err != nil {
			panic(err)
		}
	} else {
		w = programs.NewWorld(programs.WorldOpts{})
	}
	// Build /p1/p2/.../target with n components total.
	path := ""
	for i := 1; i < n; i++ {
		path += fmt.Sprintf("/p%d", i)
		w.K.FS.MustPath(path)
	}
	path += "/target"
	dir := w.K.FS.MustPath(strings.TrimSuffix(path, "/target"))
	if path == "/target" {
		dir = w.K.FS.Root()
	}
	if _, err := w.K.FS.CreateAt(dir, "target", path, vfs.CreateOpts{Mode: 0o644}); err != nil {
		panic(err)
	}
	p := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "sshd_t", Exec: programs.BinSshd})
	return w, p, path
}
