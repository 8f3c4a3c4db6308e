package core

import "testing"

func TestDetectPhases(t *testing.T) {
	sizes := []int{1, 2, 5, 11, 40, 85, 93, 100}
	p := DetectPhases(sizes, 100, 10)
	if p.ReachSmall != 3 { // first size > 10 is 11 at t=3
		t.Fatalf("ReachSmall = %d, want 3", p.ReachSmall)
	}
	if p.ReachNineTenths != 6 { // ceil(0.9*100)=90; first >= 90 is 93 at t=6
		t.Fatalf("ReachNineTenths = %d, want 6", p.ReachNineTenths)
	}
	if p.Full != 7 {
		t.Fatalf("Full = %d, want 7", p.Full)
	}
	p1, p2, p3 := p.PhaseLengths()
	if p1 != 3 || p2 != 3 || p3 != 1 {
		t.Fatalf("phase lengths = (%d,%d,%d), want (3,3,1)", p1, p2, p3)
	}
	// Unreached thresholds report -1.
	q := DetectPhases([]int{1, 2, 3}, 100, 10)
	if q.ReachSmall != -1 || q.ReachNineTenths != -1 || q.Full != -1 {
		t.Fatalf("unreached phases: %+v", q)
	}
	q1, q2, q3 := q.PhaseLengths()
	if q1 != -1 || q2 != -1 || q3 != -1 {
		t.Fatalf("unreached phase lengths: (%d,%d,%d)", q1, q2, q3)
	}
}
