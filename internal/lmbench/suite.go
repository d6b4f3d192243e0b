// suite.go stamps a result file with the machine it was measured on and
// compares two result files cell by cell.
package lmbench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// Fingerprint identifies where and on what code a suite was measured.
type Fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	// Commit is the VCS revision stamped into the binary, suffixed
	// "-dirty" when the tree had uncommitted changes; "none" when the
	// build carries no VCS stamp (go run).
	Commit string `json:"commit"`
}

// Machine fingerprints the running process.
func Machine() Fingerprint {
	return Fingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

func (f Fingerprint) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		f.CPU, f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.Commit)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func commit() string {
	rev, dirty := "none", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// ReadSuite loads a result file.
func ReadSuite(path string) (Suite, error) {
	var s Suite
	buf, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	err = json.Unmarshal(buf, &s)
	return s, err
}

// WriteSuite writes a result file.
func WriteSuite(path string, s Suite) error {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// Change is one cell that moved between two suites.
type Change struct {
	Cell string
	// Paired: the cell has a baseline side in both suites, and Old and New
	// are its median B/A; otherwise they are the B side's median ns/op (or
	// p99).
	Paired   bool
	Old, New float64
	// Ratio is NEW/OLD with its bootstrap interval over the stored rounds.
	Ratio CI
}

// Compare bootstraps NEW/OLD of every cell both suites measured and
// returns the cells whose interval excludes 1. A cell with a baseline
// side is compared on its per-round B/A ratios, so drift that moves both
// sides between the two runs cancels; a cell without one can only be
// compared on its raw B rounds. It refuses suites measured on different
// machines — a different CPU model, CPU count or Go version makes the
// ratio meaningless — or at different sizes.
func Compare(old, cur Suite) ([]Change, error) {
	of, nf := old.Fingerprint, cur.Fingerprint
	if of.CPU != nf.CPU || of.NumCPU != nf.NumCPU || of.GoVersion != nf.GoVersion {
		return nil, fmt.Errorf("fingerprints differ: old %s, new %s", of, nf)
	}
	if old.Smoke != cur.Smoke {
		return nil, fmt.Errorf("one suite ran at smoke size and the other did not")
	}
	prev := map[string]Result{}
	for _, r := range old.Cells {
		prev[r.Name] = r
	}
	var out []Change
	for _, r := range cur.Cells {
		o, ok := prev[r.Name]
		if !ok || len(o.B.RoundNs) == 0 || len(r.B.RoundNs) == 0 {
			continue
		}
		c := Change{Cell: r.Name, Old: o.B.MedianNs, New: r.B.MedianNs}
		olds, news := o.B.RoundNs, r.B.RoundNs
		if o.A != nil && r.A != nil {
			c.Paired = true
			olds, news = roundRatios(o.A.RoundNs, olds), roundRatios(r.A.RoundNs, news)
			c.Old, c.New = median(olds), median(news)
		}
		c.Ratio = bootstrap(r.Name, news, olds)
		if c.Ratio.Lo > 1 || c.Ratio.Hi < 1 {
			out = append(out, c)
		}
	}
	return out, nil
}
