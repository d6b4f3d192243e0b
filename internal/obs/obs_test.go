package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestBucketIndexBoundaries pins the bucket math at the exact edges: 0 ns,
// 1 ns, each power-of-two boundary and its neighbors, and overflow.
func TestBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0}, // zero lands in the first bucket (le 1)
		{1, 0},
		{2, 1}, // first value above 2^0
		{3, 2},
		{4, 2}, // exact edge: 4 <= 2^2
		{5, 3},
		{8, 3},
		{9, 4},
		{1024, 10},
		{1025, 11},
		{1 << 30, 30},        // largest finite bound
		{1<<30 + 1, 31},      // first overflow value
		{1 << 40, 31},        // deep overflow
		{math.MaxUint64, 31}, // extreme overflow
	}
	for _, c := range cases {
		if got := BucketIndex(c.ns); got != c.want {
			t.Errorf("BucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Every finite bucket's bound must itself land in that bucket (le is
	// inclusive), and bound+1 in the next.
	for i := 0; i < NumBuckets-1; i++ {
		bound := uint64(1) << uint(i)
		if got := BucketIndex(bound); got != i {
			t.Errorf("BucketIndex(2^%d) = %d, want %d", i, got, i)
		}
		wantNext := i + 1
		if wantNext > NumBuckets-1 {
			wantNext = NumBuckets - 1
		}
		if got := BucketIndex(bound + 1); got != wantNext {
			t.Errorf("BucketIndex(2^%d+1) = %d, want %d", i, got, wantNext)
		}
	}
	if BucketBound(NumBuckets-1) != "+Inf" {
		t.Errorf("last bucket bound = %q, want +Inf", BucketBound(NumBuckets-1))
	}
	if BucketBound(3) != "8" {
		t.Errorf("BucketBound(3) = %q, want 8", BucketBound(3))
	}
}

func TestHistogramObserveSnapshot(t *testing.T) {
	var h Histogram
	h.Observe(0, 0)
	h.Observe(1, 100)
	h.Observe(2, 100)
	h.Observe(3, 1<<62) // overflow
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if want := uint64(0 + 100 + 100 + 1<<62); s.Sum != want {
		t.Fatalf("sum = %d, want %d", s.Sum, want)
	}
	if s.Buckets[0] != 1 || s.Buckets[BucketIndex(100)] != 2 || s.Buckets[NumBuckets-1] != 1 {
		t.Fatalf("bucket spread wrong: %+v", s.Buckets)
	}
}

func TestCounterShardsSum(t *testing.T) {
	var c Counter
	for key := 0; key < 1000; key++ {
		c.Add(key, 2)
	}
	if got := c.Load(); got != 2000 {
		t.Fatalf("Load = %d, want 2000", got)
	}
}

func TestSampler(t *testing.T) {
	s := NewSampler(16)
	if s.Every() != 16 {
		t.Fatalf("Every = %d, want 16", s.Every())
	}
	// Pre-biased: the very first tick on a shard samples.
	if !s.Tick(7) {
		t.Fatal("first tick should sample")
	}
	hits := 0
	for i := 0; i < 15; i++ {
		if s.Tick(7) {
			hits++
		}
	}
	if hits != 0 {
		t.Fatalf("ticks 2..16 sampled %d times, want 0", hits)
	}
	if !s.Tick(7) {
		t.Fatal("tick 17 should sample")
	}
	// every<=1 samples everything; non-power-of-two rounds up.
	always := NewSampler(1)
	for i := 0; i < 10; i++ {
		if !always.Tick(i) {
			t.Fatal("NewSampler(1) must sample every tick")
		}
	}
	if got := NewSampler(10).Every(); got != 16 {
		t.Fatalf("NewSampler(10).Every() = %d, want 16", got)
	}
}

func TestRingWrapAndOrder(t *testing.T) {
	r := NewSpanRing(4, "")
	for i := 1; i <= 10; i++ {
		r.Record(&Span{PID: i, Op: "FILE_OPEN", Verdict: "DROP"})
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	evs := r.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		wantSeq := uint64(7 + i)
		if ev.Seq != wantSeq || ev.PID != int(wantSeq) {
			t.Fatalf("slot %d: seq=%d pid=%d, want seq=pid=%d", i, ev.Seq, ev.PID, wantSeq)
		}
	}
}

// TestSpanLogGrowsAndEvicts pins the log-shaped ring: storage grows by
// append up to the capacity, then the oldest records are evicted.
func TestSpanLogGrowsAndEvicts(t *testing.T) {
	s := &SpanRing{cap: 3}
	for i := 1; i <= 5; i++ {
		s.Record(&Span{PID: i})
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if s.Evicted() != 2 {
		t.Fatalf("Evicted = %d, want 2", s.Evicted())
	}
	recs := s.Snapshot()
	for i, r := range recs {
		if r.PID != i+3 {
			t.Fatalf("Snapshot() = %v, want pids 3,4,5", recs)
		}
	}
	// Under capacity: order preserved, nothing evicted.
	s2 := &SpanRing{cap: 10}
	s2.Record(&Span{PID: 1})
	s2.Record(&Span{PID: 2})
	if got := s2.Snapshot(); len(got) != 2 || got[0].PID != 1 || got[1].PID != 2 {
		t.Fatalf("under-capacity Snapshot() = %v", got)
	}
	if s2.Evicted() != 0 {
		t.Fatal("nothing should be evicted under capacity")
	}
	// NewSpanLog takes the documented capacity, without preallocating it.
	def := NewSpanLog("")
	def.Record(&Span{PID: 1})
	if def.cap != DefaultLogCapacity || def.Len() != 1 || cap(def.slots) >= DefaultLogCapacity {
		t.Fatalf("default log: cap=%d len=%d slots=%d", def.cap, def.Len(), cap(def.slots))
	}
}

// TestSpanRingVerdictFilterAndSeq pins the filter (rejected spans are not
// recorded and take no sequence number) and that Record stamps the
// caller's span with the ordinal it was stored under.
func TestSpanRingVerdictFilterAndSeq(t *testing.T) {
	r := NewSpanRing(8, "DROP")
	if r.Wants("ACCEPT") || !r.Wants("DROP") || !NewSpanRing(1, "").Wants("ACCEPT") {
		t.Fatal("Wants disagrees with the filter")
	}
	for i, v := range []string{"DROP", "ACCEPT", "DROP"} {
		sp := Span{PID: i, Verdict: v}
		r.Record(&sp)
		if want := map[int]uint64{0: 1, 1: 0, 2: 2}[i]; sp.Seq != want {
			t.Fatalf("span %d (%s): Seq = %d, want %d", i, v, sp.Seq, want)
		}
	}
	got := r.Snapshot()
	if r.Total() != 2 || len(got) != 2 || got[0].PID != 0 || got[1].PID != 2 {
		t.Fatalf("filtered ring = %+v (total %d)", got, r.Total())
	}
	// Preallocated: recording allocates nothing, before or after wrap.
	sp := Span{Verdict: "DROP"}
	if avg := testing.AllocsPerRun(100, func() { r.Record(&sp) }); avg != 0 {
		t.Fatalf("Record: %.2f allocs/op, want 0", avg)
	}
}

func TestRegistryIdempotentAndKindMismatch(t *testing.T) {
	r := New()
	a := r.Counter("x_total", "", L("op", "A"))
	b := r.Counter("x_total", "", L("op", "A"))
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	if c := r.Counter("x_total", "", L("op", "B")); c == a {
		t.Fatal("different labels must return a distinct counter")
	}
	if r.SpanRing("ring", 8, "") != r.SpanRing("ring", 99, "") {
		t.Fatal("same ring name must return the same ring")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Histogram("x_total", "", L("op", "A"))
}

func TestWritePrometheusFormat(t *testing.T) {
	r := New()
	r.Counter("pf_requests_total", "Requests mediated.").Add(1, 3)
	r.Counter("pf_mediations_total", "Mediations.", L("op", "FILE_OPEN"), L("verdict", "ACCEPT")).Add(1, 2)
	r.Counter("pf_mediations_total", "Mediations.", L("op", "FILE_OPEN"), L("verdict", "DROP")).Add(1, 1)
	r.GaugeFunc("mac_adv_epoch", "Adversary cache epoch.", func() uint64 { return 7 })
	h := r.Histogram("pf_gauntlet_latency_ns", "Gauntlet latency.", L("op", "FILE_OPEN"))
	h.Observe(0, 3)
	h.Observe(0, 900)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE pf_requests_total counter\n",
		"pf_requests_total 3\n",
		"# HELP pf_mediations_total Mediations.\n",
		`pf_mediations_total{op="FILE_OPEN",verdict="ACCEPT"} 2` + "\n",
		`pf_mediations_total{op="FILE_OPEN",verdict="DROP"} 1` + "\n",
		"# TYPE mac_adv_epoch gauge\n",
		"mac_adv_epoch 7\n",
		"# TYPE pf_gauntlet_latency_ns histogram\n",
		`pf_gauntlet_latency_ns_bucket{op="FILE_OPEN",le="4"} 1` + "\n",
		`pf_gauntlet_latency_ns_bucket{op="FILE_OPEN",le="1024"} 2` + "\n",
		`pf_gauntlet_latency_ns_bucket{op="FILE_OPEN",le="+Inf"} 2` + "\n",
		`pf_gauntlet_latency_ns_sum{op="FILE_OPEN"} 903` + "\n",
		`pf_gauntlet_latency_ns_count{op="FILE_OPEN"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// The TYPE header must appear exactly once per family even with
	// multiple label sets.
	if n := strings.Count(out, "# TYPE pf_mediations_total counter"); n != 1 {
		t.Errorf("TYPE header for pf_mediations_total appears %d times, want 1", n)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("pf_requests_total", "").Add(0, 5)
	r.Counter("pf_mediations_total", "", L("op", "SOCKET_SENDMSG"), L("verdict", "ACCEPT")).Add(0, 4)
	r.GaugeFunc("mac_adv_epoch", "", func() uint64 { return 2 })
	r.Histogram("kernel_mediation_latency_ns", "").Observe(0, 77)
	ring := r.SpanRing("pf_flight_drop", 4, "DROP")
	ring.Record(&Span{PID: 9, Op: "FILE_OPEN", Verdict: "DROP", Path: "/tmp/x"})

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc JSONSnapshot
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("round-trip failed: %v\n%s", err, buf.String())
	}
	if doc.Counters["pf_requests_total"][""] != 5 {
		t.Errorf("pf_requests_total = %v", doc.Counters["pf_requests_total"])
	}
	if doc.Counters["pf_mediations_total"]["op=SOCKET_SENDMSG,verdict=ACCEPT"] != 4 {
		t.Errorf("labeled counter = %v", doc.Counters["pf_mediations_total"])
	}
	if doc.Gauges["mac_adv_epoch"][""] != 2 {
		t.Errorf("gauge = %v", doc.Gauges)
	}
	h := doc.Histograms["kernel_mediation_latency_ns"][""]
	if h.Count != 1 || h.SumNs != 77 {
		t.Errorf("histogram = %+v", h)
	}
	fr := doc.Spans["pf_flight_drop"]
	if fr.Total != 1 || len(fr.Recent) != 1 || fr.Recent[0].Path != "/tmp/x" {
		t.Errorf("ring = %+v", fr)
	}
	// And the marshal must be deterministic enough to re-marshal equal.
	again, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	first, err := json.Marshal(r.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(first) {
		t.Errorf("re-marshal differs:\n%s\n%s", again, first)
	}
}

func TestHandler(t *testing.T) {
	r := New()
	r.Counter("pf_requests_total", "").Add(0, 1)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), "pf_requests_total 1") {
		t.Errorf("/metrics missing counter:\n%s", buf.String())
	}

	resp, err = srv.Client().Get(srv.URL + "/vars")
	if err != nil {
		t.Fatal(err)
	}
	var doc JSONSnapshot
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if doc.Counters["pf_requests_total"][""] != 1 {
		t.Errorf("/vars = %+v", doc.Counters)
	}
}
