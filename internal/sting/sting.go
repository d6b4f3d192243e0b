// Package sting implements the vulnerability testing tool the paper uses
// to seed its rule generation (Section 6.3.1: "we generate rules for each
// of the over 20 previously-unknown vulnerabilities we found using our
// vulnerability testing tool [41]. Our testing tool logs the process
// entrypoint and the unsafe resource that led to the attack") — a
// simulation of STING (Vijayakumar et al., USENIX Security 2012).
//
// The tool works in two phases, as STING does:
//
//  1. Attack-surface identification: run the victim workload under a
//     recording tripwire and collect every pathname resolution that passes
//     through an adversary-writable directory — the name bindings an
//     adversary could influence.
//  2. Active probing: for each surface entry, re-run the workload with an
//     attack planted at that binding (a symlink to a secret for
//     link-following/traversal tests, a pre-created file for squat tests)
//     and observe whether the victim accepts the planted resource. Each
//     accepted attack yields a Vuln report carrying the victim's program,
//     entrypoint, and operation — exactly what rulegen.RulesFromVuln needs
//     to emit a blocking rule.
package sting

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"pfirewall/internal/kernel"
	"pfirewall/internal/obs"
	"pfirewall/internal/programs"
	"pfirewall/internal/rulegen"
	"pfirewall/internal/vfs"
)

// ProbeKind is the attack variety planted at a surface entry.
type ProbeKind uint8

// Probe kinds.
const (
	// ProbeSymlink plants a symbolic link to a high-secrecy target
	// (link following / untrusted search path direction).
	ProbeSymlink ProbeKind = iota
	// ProbeSquat pre-creates an adversary-owned file at the binding
	// (file squatting direction).
	ProbeSquat
)

// String names the probe kind.
func (k ProbeKind) String() string {
	if k == ProbeSquat {
		return "squat"
	}
	return "symlink"
}

// Surface is one adversary-influenceable name binding discovered in
// phase 1: the victim resolved Path while an adversary could write the
// containing directory.
type Surface struct {
	Path       string // the binding the adversary can redirect
	Program    string // victim program
	Entrypoint uint64 // victim entrypoint performing the access
	Op         string // mediated operation
}

// Finding is one confirmed vulnerability from phase 2.
type Finding struct {
	Surface Surface
	Kind    ProbeKind
	// PlantedIno is the inode of the adversary resource the victim
	// accepted.
	PlantedIno uint64
}

// Vuln converts the finding into rulegen's vulnerability report.
func (f Finding) Vuln() rulegen.Vuln {
	return rulegen.Vuln{
		Kind:       rulegen.VulnUntrustedResource,
		Program:    f.Surface.Program,
		Entrypoint: f.Surface.Entrypoint,
		Op:         f.Surface.Op,
	}
}

// Workload is the victim behaviour under test. NewWorld must build a fresh
// world (attacks mutate the filesystem, so every probe runs on a clean
// one); Run drives the victim once and reports the resources it accepted.
type Workload struct {
	// NewWorld builds a pristine world for one run.
	NewWorld func() *programs.World
	// Run executes the victim once, returning the inodes of the resources
	// it ended up using (e.g. the library it loaded, the file it read).
	Run func(w *programs.World) ([]uint64, error)
}

// Tester drives the two phases.
type Tester struct {
	// SecretTarget is where symlink probes point (default /etc/shadow).
	SecretTarget string
}

// New returns a tester with defaults.
func New() *Tester { return &Tester{SecretTarget: "/etc/shadow"} }

// FindSurfaces runs phase 1: execute the workload under a LOG-everything
// firewall and keep every access whose resolution passed through an
// adversary-writable binding.
func (t *Tester) FindSurfaces(wl Workload) ([]Surface, error) {
	w := wl.NewWorld()
	if w.Engine == nil {
		return nil, errors.New("sting: workload world must have a firewall for tracing")
	}
	log := obs.NewSpanLog("")
	w.Engine.Log = log
	if err := installLogAll(w); err != nil {
		return nil, err
	}
	if _, err := wl.Run(w); err != nil {
		return nil, fmt.Errorf("sting: phase 1 run: %w", err)
	}

	seen := map[Surface]bool{}
	var out []Surface
	for _, r := range log.Snapshot() {
		// A binding is attackable if the adversary can modify it — the
		// record's own adversary-accessibility bit, restricted to named
		// filesystem resources.
		if r.Flags&obs.SpanAdvWrite == 0 || r.Path == "" || r.Program == "" {
			continue
		}
		s := Surface{Path: r.Path, Program: r.Program, Entrypoint: r.Entrypoint, Op: r.Op}
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Path != out[j].Path {
			return out[i].Path < out[j].Path
		}
		return out[i].Entrypoint < out[j].Entrypoint
	})
	return out, nil
}

// installLogAll adds the system-wide LOG rule phase 1 records through.
func installLogAll(w *programs.World) error {
	_, err := w.InstallRules([]string{`pftables -I input -j LOG --prefix "sting"`})
	return err
}

// Probe runs phase 2 for one surface entry and probe kind: plant the
// attack in a fresh world, re-run the workload, and decide whether the
// victim accepted the planted resource.
func (t *Tester) Probe(wl Workload, s Surface, kind ProbeKind) (*Finding, error) {
	w := wl.NewWorld()
	adv := w.NewUser()

	planted, err := t.plant(w, adv, s.Path, kind)
	if err != nil {
		// The binding was not actually attackable in a fresh world (e.g.
		// the file already exists for squat); not a finding.
		return nil, nil
	}

	used, err := wl.Run(w)
	if err != nil {
		// The attack crashed the victim rather than redirecting it; STING
		// records these separately — we treat them as no finding.
		return nil, nil
	}
	target := planted
	if kind == ProbeSymlink {
		// Accepting the symlink means reaching its target.
		res, rerr := w.K.FS.Resolve(nil, t.SecretTarget, vfs.ResolveOpts{FollowFinal: true}, nil)
		if rerr != nil {
			return nil, rerr
		}
		target = uint64(res.Node.Ino)
	}
	for _, ino := range used {
		if ino == target {
			return &Finding{Surface: s, Kind: kind, PlantedIno: planted}, nil
		}
	}
	return nil, nil
}

// plant installs the adversary resource at path, returning its inode.
func (t *Tester) plant(w *programs.World, adv *kernel.Proc, path string, kind ProbeKind) (uint64, error) {
	// Ensure intermediate adversary-owned directories exist (mirrors the
	// adversary's mkdir in shared spaces like /tmp).
	dir := path[:strings.LastIndex(path, "/")]
	if dir != "" && dir != "/tmp" {
		if err := adv.Mkdir(dir, 0o777); err != nil && !errors.Is(err, vfs.ErrExist) {
			return 0, err
		}
	}
	switch kind {
	case ProbeSymlink:
		if err := adv.Symlink(t.SecretTarget, path); err != nil {
			return 0, err
		}
	case ProbeSquat:
		fd, err := adv.Open(path, kernel.O_CREAT|kernel.O_EXCL|kernel.O_RDWR, 0o666)
		if err != nil {
			return 0, err
		}
		adv.Write(fd, []byte("SQUATTED"))
		adv.Close(fd)
	}
	res, err := w.K.FS.Resolve(nil, path, vfs.ResolveOpts{}, nil)
	if err != nil {
		return 0, err
	}
	return uint64(res.Node.Ino), nil
}

// Hunt runs both phases end to end: identify surfaces, probe each with
// both attack kinds, and return the confirmed findings.
func (t *Tester) Hunt(wl Workload) ([]Finding, error) {
	surfaces, err := t.FindSurfaces(wl)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, s := range surfaces {
		for _, kind := range []ProbeKind{ProbeSymlink, ProbeSquat} {
			f, err := t.Probe(wl, s, kind)
			if err != nil {
				return findings, err
			}
			if f != nil {
				findings = append(findings, *f)
			}
		}
	}
	return findings, nil
}

// Rules converts findings into pftables rules via template T1, one rule
// per distinct (program, entrypoint, op).
func Rules(findings []Finding) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range findings {
		for _, r := range rulegen.RulesFromVuln(f.Vuln()) {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	return out
}
