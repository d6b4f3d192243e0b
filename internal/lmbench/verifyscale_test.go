package lmbench

import "testing"

// TestVerifyScaleSmoke runs the trimmed sweep: both bench invariants must
// be proven at every size and the result fields must be populated.
func TestVerifyScaleSmoke(t *testing.T) {
	rs := runSmall(verifyCells([]int{100, 1200}), 1, 1)
	if len(rs) != 2 {
		t.Fatalf("cells = %d, want 2", len(rs))
	}
	for _, r := range rs {
		x := r.B.Extra
		if x["holds"] != 1 {
			t.Errorf("invariants not proven at %v rules", x["rules"])
		}
		if x["invariants"] != 2 || x["points"] == 0 || r.B.MedianNs <= 0 {
			t.Errorf("cell fields unpopulated: %+v", r)
		}
		if !r.Gates[0].OK {
			t.Errorf("trimmed sweep failed its gate: %+v", r.Gates[0])
		}
	}
	if rs[0].B.Extra["points"] >= rs[1].B.Extra["points"] {
		t.Errorf("wide-cell point count should grow with the label universe: %v -> %v",
			rs[0].B.Extra["points"], rs[1].B.Extra["points"])
	}
	if out := FormatResult(rs[0]); out == "" {
		t.Error("empty render")
	}
}
