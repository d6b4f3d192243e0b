// Package pf implements the Process Firewall engine of the EuroSys 2013
// paper: an iptables-style rule base consulted after conventional
// authorization, which decides — from process context (entrypoints, syscall
// history) and resource context (labels, identifiers, adversary
// accessibility) — whether a resource is appropriate for the process's
// current state.
//
// Architecture (paper Figure 3): rules live in chains; each rule combines
// default matches (subject/object label, program, entrypoint, operation),
// extension match modules (STATE, COMPARE, SIGNAL_MATCH, SYSCALL_ARGS), and
// a target (ACCEPT, DROP, STATE, LOG, or a jump to another chain). Context
// needed by matches is gathered by context modules, gated by a bitmask so
// each field is collected at most once (lazy retrieval), cached across the
// multiple resource requests of one system call (module-specific caching),
// and rules tied to entrypoints are indexed into entrypoint-specific chains
// (paper Sections 4.2–4.3). Traversal state is per process, so evaluation
// is re-entrant and never disables preemption (Section 5.1).
package pf

import "fmt"

// Op identifies the mediated operation, mirroring the LSM operations the
// paper's rules name with -o (e.g. FILE_OPEN, LNK_FILE_READ).
type Op uint16

// Mediated operations.
const (
	OpInvalid Op = iota
	OpFileOpen
	OpFileRead
	OpFileWrite
	OpFileCreate
	OpFileExec
	OpFileGetattr
	OpFileSetattr
	OpFileUnlink
	OpFileMmap
	OpDirSearch
	OpDirAddName
	OpDirRemoveName
	OpLnkFileRead
	OpSocketBind
	OpSocketConnect
	OpSocketSetattr
	OpSocketListen
	OpSocketAccept
	OpSocketSend
	OpSocketRecv
	OpFifoCreate
	OpSignalDeliver
	OpSyscallBegin
	opCount
)

// opNames is indexed by Op, so String is one bounds-checked load: the
// tracer and the flight recorder render an op name per recorded span.
var opNames = [opCount]string{
	OpFileOpen:      "FILE_OPEN",
	OpFileRead:      "FILE_READ",
	OpFileWrite:     "FILE_WRITE",
	OpFileCreate:    "FILE_CREATE",
	OpFileExec:      "FILE_EXEC",
	OpFileGetattr:   "FILE_GETATTR",
	OpFileSetattr:   "FILE_SETATTR",
	OpFileUnlink:    "FILE_UNLINK",
	OpFileMmap:      "FILE_MMAP",
	OpDirSearch:     "DIR_SEARCH",
	OpDirAddName:    "DIR_ADD_NAME",
	OpDirRemoveName: "DIR_REMOVE_NAME",
	OpLnkFileRead:   "LNK_FILE_READ",
	OpSocketBind:    "SOCKET_BIND",
	OpSocketConnect: "UNIX_STREAM_SOCKET_CONNECT",
	OpSocketSetattr: "SOCKET_SETATTR",
	OpSocketListen:  "SOCKET_LISTEN",
	OpSocketAccept:  "SOCKET_ACCEPT",
	OpSocketSend:    "SOCKET_SENDMSG",
	OpSocketRecv:    "SOCKET_RECVMSG",
	OpFifoCreate:    "FIFO_CREATE",
	OpSignalDeliver: "PROCESS_SIGNAL_DELIVERY",
	OpSyscallBegin:  "SYSCALL_BEGIN",
}

// opAliases accepts alternative spellings seen in the paper's rule listing.
var opAliases = map[string]Op{
	"LINK_READ":      OpLnkFileRead,
	"SOCKET_CONNECT": OpSocketConnect,
}

// String returns the rule-language name of the operation.
//
//pflint:allow-fn — diagnostic rendering, reached only from log/flight-record emission.
func (o Op) String() string {
	if o < opCount && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("OP(%d)", uint16(o))
}

// ParseOp parses a rule-language operation name.
func ParseOp(s string) (Op, error) {
	for op, name := range opNames {
		if name != "" && name == s {
			return Op(op), nil
		}
	}
	if op, ok := opAliases[s]; ok {
		return op, nil
	}
	return OpInvalid, fmt.Errorf("pf: unknown operation %q", s)
}

// OpSet is a bit set of operations.
type OpSet uint32

// NewOpSet builds a set from ops.
func NewOpSet(ops ...Op) OpSet {
	var s OpSet
	for _, o := range ops {
		s |= 1 << o
	}
	return s
}

// Has reports membership. The empty set matches every operation, which is
// the rule-language convention for an omitted -o.
func (s OpSet) Has(o Op) bool {
	return s == 0 || s&(1<<o) != 0
}

// Verdict is the authorization decision the engine returns.
type Verdict int8

// Verdicts.
const (
	VerdictAccept Verdict = iota // allow the access (default policy)
	VerdictDrop                  // block the access
)

// String names the verdict like an iptables target.
func (v Verdict) String() string {
	if v == VerdictDrop {
		return "DROP"
	}
	return "ACCEPT"
}
