package main

import (
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"pfirewall/internal/obs"
)

// mono is the harness clock: one monotonic read, the same clock (and base)
// the kernel's provenance spans use, so harness and kernel spans share a
// time line.
func mono() int64 { return obs.MonoNow() }

// CPU clocks, as clock_gettime(2) numbers them.
const (
	clockProcessCPU = 2
	clockThreadCPU  = 3
)

// cpuNow reads a CPU-time clock in nanoseconds: the process's, or the
// calling thread's (the caller must be locked to its thread). The kernel
// leaves out of it the time the hypervisor gives the host CPU to another
// guest (steal), which on a shared VM swings by a quarter of wall time
// from minute to minute.
func cpuNow(clock uintptr) int64 {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime: " + e.Error())
	}
	return ts.Nano()
}

// recorder keeps latency samples in storage allocated before timing
// starts. When the buffer fills it keeps every other sample and doubles
// its stride, so the kept samples stay spread evenly over the whole run
// and recording never allocates.
type recorder struct {
	buf    []int64
	n      int
	stride int64
	skip   int64
	total  int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{buf: make([]int64, capacity), stride: 1}
}

func (r *recorder) add(ns int64) {
	r.total++
	if r.skip > 0 {
		r.skip--
		return
	}
	if r.n == len(r.buf) {
		half := r.n / 2
		for i := 0; i < half; i++ {
			r.buf[i] = r.buf[2*i]
		}
		r.n = half
		r.stride *= 2
	}
	r.buf[r.n] = ns
	r.n++
	r.skip = r.stride - 1
}

// reset forgets every sample but keeps the storage.
func (r *recorder) reset() { r.n, r.stride, r.skip, r.total = 0, 1, 0, 0 }

// quantiles sorts the kept samples and returns the requested quantiles
// (linear interpolation between closest ranks), in nanoseconds.
func (r *recorder) quantiles(qs ...float64) []float64 {
	s := r.buf[:r.n]
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantileSorted(s, q)
	}
	return out
}

func quantileSorted[T int64 | float64](s []T, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(s[lo])*(1-frac) + float64(s[hi])*frac
}

// median of a few durations, e.g. repeated set-ups.
func medianDur(ds []time.Duration) time.Duration {
	s := make([]int64, len(ds))
	for i, d := range ds {
		s[i] = int64(d)
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return time.Duration(quantileSorted(s, 0.5))
}

// metric is one reported figure with the number of samples behind it.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int64   `json:"samples"`
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// xorshift64 is the benchmark's own deterministic generator; every input
// stream derives from the workload seed through it.
type xorshift64 struct{ s uint64 }

func newRand(seed, stream uint64) *xorshift64 {
	return &xorshift64{s: (seed*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9) | 1}
}

func (x *xorshift64) next() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s
}

func (x *xorshift64) intn(n int) int { return int(x.next() % uint64(n)) }
