// Package kernel implements the simulated operating-system kernel that
// hosts the Process Firewall: processes with credentials, file descriptors
// and simulated user memory; a system-call layer whose pathname resolution
// is mediated object-by-object (the LSM analogue); UNIX DAC plus an
// SELinux-like MAC check; signal delivery; and deterministic adversary
// interleaving hooks that reproduce the scheduling freedom real attackers
// exploit for TOCTTOU and signal races.
//
// The mediation order per operation follows the paper's Figure 2: DAC and
// MAC authorize first; only if they allow is the Process Firewall invoked
// to decide whether the resource is appropriate for the process's current
// context.
package kernel

import (
	"errors"

	"pfirewall/internal/ipc"
)

// Syscall numbers, used by syscallbegin-chain rules via NR_* constants
// (paper rule R12 matches NR_sigreturn).
type Syscall int

// System calls of the simulated kernel.
const (
	NrInvalid Syscall = iota
	NrOpen
	NrClose
	NrRead
	NrWrite
	NrStat
	NrLstat
	NrFstat
	NrAccess
	NrUnlink
	NrMkdir
	NrRmdir
	NrSymlink
	NrLink
	NrRename
	NrChmod
	NrFchmod
	NrChown
	NrBind
	NrConnect
	NrMmap
	NrFork
	NrExecve
	NrExit
	NrKill
	NrSigaction
	NrSigprocmask
	NrSigreturn
	NrGetpid
	NrFtruncate
	NrChroot
	NrMkfifo
	NrListen
	NrAccept
	NrSendmsg
	NrRecvmsg
	NrSendmmsg
	NrRecvmmsg
	nrCount
)

// syscallNames is indexed by Syscall, so String is one bounds-checked
// load: the tracer renders a syscall name per span.
var syscallNames = [nrCount]string{
	NrOpen: "open", NrClose: "close", NrRead: "read", NrWrite: "write",
	NrStat: "stat", NrLstat: "lstat", NrFstat: "fstat", NrAccess: "access",
	NrUnlink: "unlink", NrMkdir: "mkdir", NrRmdir: "rmdir",
	NrSymlink: "symlink", NrLink: "link", NrRename: "rename",
	NrChmod: "chmod", NrFchmod: "fchmod", NrChown: "chown",
	NrBind: "bind", NrConnect: "connect", NrMmap: "mmap",
	NrFork: "fork", NrExecve: "execve", NrExit: "exit", NrKill: "kill",
	NrSigaction: "sigaction", NrSigprocmask: "sigprocmask",
	NrSigreturn: "sigreturn", NrGetpid: "getpid", NrFtruncate: "ftruncate", NrChroot: "chroot", NrMkfifo: "mkfifo",
	NrListen: "listen", NrAccept: "accept", NrSendmsg: "sendmsg", NrRecvmsg: "recvmsg",
	NrSendmmsg: "sendmmsg", NrRecvmmsg: "recvmmsg",
}

// String returns the syscall name.
func (s Syscall) String() string {
	if uint(s) < uint(nrCount) && syscallNames[s] != "" {
		return syscallNames[s]
	}
	return "syscall(?)"
}

// SyscallNames returns the name→number table used by pftables to resolve
// NR_* constants.
func SyscallNames() map[string]int {
	out := make(map[string]int, len(syscallNames))
	for nr, name := range syscallNames {
		if name != "" {
			out[name] = nr
		}
	}
	return out
}

// Signals.
const (
	SIGKILL = 9
	SIGUSR1 = 10
	SIGSEGV = 11
	SIGALRM = 14
	SIGTERM = 15
	SIGCHLD = 17
	SIGSTOP = 19
)

// Errors returned by the kernel on top of the vfs error set.
var (
	// ErrPFDenied is returned when the Process Firewall drops an access.
	ErrPFDenied = errors.New("blocked by process firewall")
	// ErrMACDenied is returned when the MAC policy denies an access
	// (only when the kernel is in MAC-enforcing mode).
	ErrMACDenied = errors.New("denied by MAC policy")
	// ErrBadFd is returned for operations on closed or unknown descriptors.
	ErrBadFd = errors.New("bad file descriptor")
	// ErrNoProc is returned when a target process does not exist.
	ErrNoProc = errors.New("no such process")
	// ErrExited is returned for syscalls from an exited process.
	ErrExited = errors.New("process has exited")
	// ErrConnRefused is returned when connecting to a socket nobody is
	// listening on — including a dangling socket inode whose owner exited.
	ErrConnRefused = ipc.ErrRefused
)
