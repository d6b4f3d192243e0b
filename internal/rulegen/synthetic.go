package rulegen

import (
	"fmt"

	"pfirewall/internal/obs"
)

// This file synthesizes the two-week deployment runtime trace of paper
// Section 6.3.1 (5234 entrypoints, ~410,000 log entries on an Ubuntu 10.04
// desktop with SELinux). The real trace is unavailable; the generator
// reconstructs a population whose classification behaviour matches the
// published Table 8:
//
//   - 4229 entrypoints only ever access high-integrity resources;
//   - 480 only ever access low-integrity resources;
//   - 525 eventually access both, with the invocation at which the second
//     class first appears ("flip point") distributed per the Both column's
//     deltas — the last flip at invocation 1149, the paper's
//     zero-false-positive threshold;
//   - invocation counts follow a heavy tail sized so the Rules column and
//     the ~410k total both come out near the paper's values.
//
// The generator is deterministic: same seed, same trace (an xorshift PRNG
// is embedded to avoid any dependence on global randomness).

// xorshift64 is a tiny deterministic PRNG.
type xorshift64 struct{ s uint64 }

func (x *xorshift64) next() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s
}

// intn returns a deterministic value in [0, n).
func (x *xorshift64) intn(n int) int { return int(x.next() % uint64(n)) }

// epSpec describes one synthetic entrypoint.
type epSpec struct {
	program string
	off     uint64
	invokes int
	// flip is the invocation index (1-based) at which the minority class
	// first appears; 0 means never (pure entrypoint).
	flip int
	// startLow selects the majority class.
	startLow bool
}

// flipCohorts encodes the Both-column deltas of Table 8: how many
// entrypoints first show their second class within each invocation band.
var flipCohorts = []struct {
	count    int
	from, to int // flip point range [from, to]
}{
	{290, 2, 5},
	{78, 6, 10},
	{129, 11, 50},
	{10, 51, 100},
	{14, 101, 500},
	{3, 501, 1000},
	{1, 1149, 1149},
}

// pureCohorts sizes the invocation heavy tail for the 4709 pure
// entrypoints, chosen so the Rules column lands near the paper's.
var pureCohorts = []struct {
	count    int
	from, to int // invocation count range
}{
	{2615, 1, 4},
	{715, 5, 9},
	{917, 10, 49},
	{185, 50, 99},
	{217, 100, 499},
	{27, 500, 999},
	{3, 1000, 1148},
	{19, 1149, 4999},
	{11, 5000, 24000},
}

// Totals of the synthetic population (matching the paper's Section 6.3.1).
const (
	SynPureHigh = 4229
	SynPureLow  = 480
	SynBoth     = 525
	SynTotalEps = SynPureHigh + SynPureLow + SynBoth // 5234
)

// SyntheticDeployment generates the synthetic two-week trace, one LOG
// span per invocation, in an exactly-sized slice.
func SyntheticDeployment(seed uint64) []obs.Span {
	rng := &xorshift64{s: seed | 1}
	var specs []epSpec

	// Pure entrypoints: assign invocation counts from the tail cohorts.
	pure := make([]int, 0, SynPureHigh+SynPureLow)
	for _, c := range pureCohorts {
		for i := 0; i < c.count; i++ {
			n := c.from
			if c.to > c.from {
				n += rng.intn(c.to - c.from + 1)
			}
			pure = append(pure, n)
		}
	}
	for i, n := range pure {
		specs = append(specs, epSpec{
			program:  fmt.Sprintf("/usr/bin/prog%03d", i%318),
			off:      uint64(0x1000 + i*16),
			invokes:  n,
			startLow: i >= SynPureHigh, // the last 480 pure eps are low-only
		})
	}

	// Both entrypoints: flip points per cohort; 341 start high, 184 start
	// low (the Table 8 High/Low column deltas between t=0 and t=1149).
	bothIdx := 0
	for _, c := range flipCohorts {
		for i := 0; i < c.count; i++ {
			flip := c.from
			if c.to > c.from {
				flip += rng.intn(c.to - c.from + 1)
			}
			specs = append(specs, epSpec{
				program:  fmt.Sprintf("/usr/bin/prog%03d", bothIdx%318),
				off:      uint64(0x900000 + bothIdx*16),
				invokes:  flip + 1 + rng.intn(8),
				flip:     flip,
				startLow: bothIdx >= 341,
			})
			bothIdx++
		}
	}

	// Emit records. Interleaving across entrypoints is irrelevant to the
	// analysis (classification is per entrypoint), so emit grouped.
	n := 0
	for _, sp := range specs {
		n += sp.invokes
	}
	out := make([]obs.Span, 0, n)
	for _, sp := range specs {
		for inv := 1; inv <= sp.invokes; inv++ {
			low := sp.startLow
			if sp.flip > 0 && inv >= sp.flip {
				// From the flip point on, the minority class appears;
				// alternate afterwards so both classes keep occurring.
				if inv == sp.flip || inv%2 == 0 {
					low = !sp.startLow
				}
			}
			rec := obs.Span{
				Seq:        uint64(len(out) + 1),
				PID:        1,
				Op:         "FILE_OPEN",
				Verdict:    "ACCEPT",
				Subject:    "syshigh_t",
				Object:     "lib_t",
				Program:    sp.program,
				Entrypoint: sp.off,
			}
			if low {
				rec.Object = "tmp_t"
				rec.Flags = obs.SpanAdvWrite
			}
			out = append(out, rec)
		}
	}
	return out
}

// ScaleSizes are the rule-base sizes the rule-scaling benchmark sweeps:
// a small app profile, the paper's system-wide deployment (Table 5 reports
// ~1,226 installed rules), and an order of magnitude beyond it.
var ScaleSizes = []int{100, 1200, 10000}

// scaleOps carries the op distribution of the generated generic rules,
// weighted the way deployed rule bases skew: file opens and reads dominate,
// sockets and metadata ops trail.
var scaleOps = []struct {
	name   string
	weight int
}{
	{"FILE_OPEN", 22},
	{"FILE_READ", 12},
	{"FILE_WRITE", 10},
	{"FILE_GETATTR", 8},
	{"DIR_SEARCH", 8},
	{"LNK_FILE_READ", 8},
	{"FILE_CREATE", 5},
	{"SOCKET_BIND", 5},
	{"UNIX_STREAM_SOCKET_CONNECT", 5},
	{"FILE_EXEC", 4},
	{"FILE_UNLINK", 3},
	{"SOCKET_SENDMSG", 3},
	{"SOCKET_RECVMSG", 3},
	{"FILE_SETATTR", 2},
	{"PROCESS_SIGNAL_DELIVERY", 2},
}

// wildcardOps restricts subjectless (and subject-negated) rules to the ops
// such rules carry in practice — integrity invariants like the paper's
// symlink and signal rules — rather than the hot file-access ops. This is
// what keeps the per-op wildcard buckets small: a rule base whose wildcard
// rules all sat on FILE_OPEN would degrade every process equally no matter
// how rules are indexed.
var wildcardOps = []string{
	"LNK_FILE_READ", "FILE_SETATTR", "SOCKET_BIND",
	"UNIX_STREAM_SOCKET_CONNECT", "PROCESS_SIGNAL_DELIVERY", "FIFO_CREATE",
}

func pickWeighted(rng *xorshift64) string {
	total := 0
	for _, o := range scaleOps {
		total += o.weight
	}
	n := rng.intn(total)
	for _, o := range scaleOps {
		if n < o.weight {
			return o.name
		}
		n -= o.weight
	}
	return scaleOps[0].name
}

// ScaleRuleBase generates a deployment-scale rule base of n pftables lines
// with a realistic subject/op distribution: mostly per-domain deny rules
// (the subject-domain pool grows with n, as real deployments add rules
// because they confine more programs), a slice of entrypoint-specific rules,
// and a small wildcard/negated-subject tail. Deny objects are drawn from a
// synthetic label namespace so the rules never fire against the benchmark
// workload's files — the cost being measured is rule matching, not verdict
// churn. Deterministic in seed.
func ScaleRuleBase(seed uint64, n int) []string {
	rng := &xorshift64{s: seed | 1}
	// Subject domains: domain 0 is the benchmark identity (sshd_t), so a
	// realistic share of rules lands in its dispatch buckets.
	nDoms := n / 16
	if nDoms < 8 {
		nDoms = 8
	}
	dom := func(i int) string {
		if i == 0 {
			return "sshd_t"
		}
		return fmt.Sprintf("scl_dom%03d_t", i)
	}
	obj := func() string { return fmt.Sprintf("scl_obj%02d_t", rng.intn(24)) }

	rules := make([]string, 0, n)
	for i := 0; len(rules) < n; i++ {
		switch r := rng.intn(100); {
		case r < 15:
			// Entrypoint-specific deny (what rule suggestion mass-produces);
			// EptChains indexes these out of the generic traversal list.
			rules = append(rules, fmt.Sprintf(
				"pftables -A input -p /usr/bin/prog%03d -i 0x%x -s SYSHIGH -d {%s} -o FILE_OPEN -j DROP",
				i%331, 0x2000+(i*0x40)%0xffff, obj()))
		case r < 20:
			// Wildcard subject: system-wide invariant on a non-hot op.
			op := wildcardOps[rng.intn(len(wildcardOps))]
			if rng.intn(3) == 0 {
				rules = append(rules, fmt.Sprintf(
					"pftables -A input -s ~{%s} -d {%s} -o %s -j DROP", dom(rng.intn(nDoms)), obj(), op))
			} else {
				rules = append(rules, fmt.Sprintf(
					"pftables -A input -d {%s} -o %s -j DROP", obj(), op))
			}
		case r < 24:
			// Audit rule: LOG and fall through.
			rules = append(rules, fmt.Sprintf(
				"pftables -A input -s {%s} -d {%s} -o %s -j LOG --prefix scale",
				dom(rng.intn(nDoms)), obj(), pickWeighted(rng)))
		default:
			// Per-domain deny, the bulk of a deployed base. One or two ops,
			// subject of one or two domains.
			ops := pickWeighted(rng)
			if rng.intn(3) == 0 {
				ops += "," + pickWeighted(rng)
			}
			subj := dom(rng.intn(nDoms))
			if rng.intn(5) == 0 {
				subj += "|" + dom(rng.intn(nDoms))
			}
			rules = append(rules, fmt.Sprintf(
				"pftables -A input -s {%s} -d {%s} -o %s -j DROP", subj, obj(), ops))
		}
	}
	return rules
}

// Launch records one program invocation for the OS-distributor analysis
// (paper Section 6.3.2): command line, environment, and whether the
// package files were modified since installation.
type Launch struct {
	Program         string
	Args            string
	Env             string
	PackageModified bool
}

// ConsistentPrograms returns, per Section 6.3.2, the programs whose every
// launch used identical arguments and environment with unmodified package
// files — the programs for which distributor-shipped rules are valid.
func ConsistentPrograms(launches []Launch) (consistent, total int) {
	type sig struct{ args, env string }
	first := map[string]sig{}
	bad := map[string]bool{}
	for _, l := range launches {
		s := sig{l.Args, l.Env}
		if l.PackageModified {
			bad[l.Program] = true
		}
		if prev, ok := first[l.Program]; ok {
			if prev != s {
				bad[l.Program] = true
			}
		} else {
			first[l.Program] = s
		}
	}
	for p := range first {
		if !bad[p] {
			consistent++
		}
	}
	return consistent, len(first)
}

// SyntheticLaunches reproduces the paper's observation: 318 programs, 232
// of which were launched in the installed-package environment every time.
func SyntheticLaunches(seed uint64) []Launch {
	rng := &xorshift64{s: seed | 1}
	var out []Launch
	for i := 0; i < 318; i++ {
		prog := fmt.Sprintf("/usr/bin/prog%03d", i)
		inconsistent := i >= 232 // 86 programs vary across launches
		n := 2 + rng.intn(6)
		for j := 0; j < n; j++ {
			l := Launch{Program: prog, Args: "--default", Env: "PATH=/usr/bin"}
			if inconsistent && j == n-1 {
				switch i % 3 {
				case 0:
					l.Args = "--custom"
				case 1:
					l.Env = "PATH=/home/user/bin"
				default:
					l.PackageModified = true
				}
			}
			out = append(out, l)
		}
	}
	return out
}
