package lmbench

import "testing"

// TestPolicyChurnSmoke runs every control-plane cell at tiny parameters and
// checks the structural invariants the gates read.
func TestPolicyChurnSmoke(t *testing.T) {
	rs := runSmall(policyCells([]int{100, 400}), 0, 3)
	if len(rs) != 4 {
		t.Fatalf("policy cells = %d, want 2 publish + propagation + disturbance", len(rs))
	}
	for _, r := range rs[:2] {
		if r.A.MedianNs <= 0 || r.B.MedianNs <= 0 || r.B.Extra["publishes"] == 0 {
			t.Errorf("degenerate publish cell %+v", r)
		}
		if s := 1 / r.Ratio.Median; s <= 0 {
			t.Errorf("%s: no speedup computable (got %f)", r.Name, s)
		}
	}
	if len(rs[1].Gates) != 1 || len(rs[0].Gates) != 0 {
		t.Errorf("the speedup gate belongs to the largest size only: %+v / %+v", rs[0].Gates, rs[1].Gates)
	}
	pr := rs[2]
	if pr.B.Extra["stale_verdicts"] != 0 || !pr.Gates[0].OK {
		t.Errorf("%v stale verdicts after synchronous publishes", pr.B.Extra["stale_verdicts"])
	}
	if pr.B.MedianNs <= 0 {
		t.Error("propagation measured nothing")
	}
	d := rs[3]
	if d.B.Extra["verdicts_conserved"] != 1 || !d.Gates[0].OK {
		t.Errorf("verdicts not conserved: %v != %v + %v", d.B.Extra["requests"], d.B.Extra["accepts"], d.B.Extra["drops"])
	}
	if d.B.Extra["publishes"] == 0 || d.B.Extra["delta_compiles"] == 0 {
		t.Errorf("churn side published nothing (%v publishes, %v delta)", d.B.Extra["publishes"], d.B.Extra["delta_compiles"])
	}
	if d.Stat != "p99" || d.A.MedianNs <= 0 || d.B.MedianNs <= 0 {
		t.Error("disturbance percentiles degenerate")
	}
}
