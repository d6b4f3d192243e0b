package obs

import "sync"

// DefaultLogCapacity is the capacity of a NewSpanLog ring. 65536 records
// is plenty for a rule-generation profiling run (the paper's traces are
// per entrypoint invocation) while capping a LOG-heavy workload at a few
// tens of megabytes instead of unbounded growth.
const DefaultLogCapacity = 1 << 16

// SpanRing is the bounded flight recorder every span consumer shares: the
// last cap spans survive, oldest evicted first. An optional verdict filter
// keeps only spans with that verdict, so a denial log is never flushed by
// the accepts around it. Record assigns each span its Seq under the ring's
// lock, so a slot never regresses to an older span and Snapshot needs no
// sort. Safe for concurrent use.
type SpanRing struct {
	verdict string // "" keeps every verdict

	mu    sync.Mutex
	cap   int
	total uint64
	slots []Span // grows by append up to cap, then wraps at total % cap
}

// NewSpanRing returns a ring holding the last capacity spans (minimum 1)
// whose Verdict equals verdict ("" keeps all). Its slots are preallocated,
// so recording never allocates — the flight-recorder shape, for small
// rings on the mediation path.
func NewSpanRing(capacity int, verdict string) *SpanRing {
	capacity = max(capacity, 1)
	return &SpanRing{verdict: verdict, cap: capacity, slots: make([]Span, 0, capacity)}
}

// NewSpanLog is NewSpanRing for the log shape: DefaultLogCapacity slots
// whose storage grows by append as records arrive, since most runs never
// fill them.
func NewSpanLog(verdict string) *SpanRing {
	return &SpanRing{verdict: verdict, cap: DefaultLogCapacity}
}

// Wants reports whether the ring keeps spans with verdict v. Producers
// check it before filling a span the ring would discard.
func (r *SpanRing) Wants(v string) bool { return r.verdict == "" || r.verdict == v }

// Record copies *sp into the ring, evicting the oldest span once full, and
// stamps sp.Seq with the span's 1-based ordinal. Spans the verdict filter
// rejects are ignored.
func (r *SpanRing) Record(sp *Span) {
	if !r.Wants(sp.Verdict) {
		return
	}
	r.mu.Lock() //pflint:allow — flight-recorder capture: runs for sampled, dropped or LOGged requests, never on the steady-state accept path
	r.total++
	sp.Seq = r.total
	if len(r.slots) < r.cap {
		r.slots = append(r.slots, *sp)
	} else {
		r.slots[(r.total-1)%uint64(r.cap)] = *sp
	}
	r.mu.Unlock()
}

// Len returns the number of retained spans.
func (r *SpanRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.slots)
}

// Total returns how many spans were ever recorded.
func (r *SpanRing) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Evicted returns how many recorded spans eviction has discarded.
func (r *SpanRing) Evicted() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - uint64(len(r.slots))
}

// Snapshot returns the retained spans, oldest first.
func (r *SpanRing) Snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.slots))
	if len(r.slots) < r.cap {
		copy(out, r.slots)
		return out
	}
	start := r.total % uint64(r.cap)
	n := copy(out, r.slots[start:])
	copy(out[n:], r.slots[:start])
	return out
}
