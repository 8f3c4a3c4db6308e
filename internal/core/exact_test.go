package core

import (
	"math"
	"testing"
)

func TestInfectProbBounds(t *testing.T) {
	// infectProb is a probability and is monotone in d.
	for _, br := range []Branching{{K: 1}, {K: 2}, {K: 3, Rho: 0.5}} {
		prev := -1.0
		for d := 0; d <= 8; d++ {
			p := infectProb(d, 8, br)
			if p < 0 || p > 1 {
				t.Fatalf("infectProb(%d, 8, %v) = %v out of [0,1]", d, br, p)
			}
			if p < prev {
				t.Fatalf("infectProb not monotone at d=%d (%v): %v < %v", d, br, p, prev)
			}
			prev = p
		}
		if infectProb(0, 8, br) != 0 {
			t.Fatalf("no infected neighbours must mean probability 0")
		}
		if p := infectProb(8, 8, br); math.Abs(p-1) > 1e-12 {
			t.Fatalf("all infected neighbours must mean probability 1, got %v", p)
		}
	}
}

func TestPushInsideProbBounds(t *testing.T) {
	for _, br := range []Branching{{K: 1}, {K: 2}, {K: 2, Rho: 0.3}} {
		if p := pushInsideProb(8, 8, br); math.Abs(p-1) > 1e-12 {
			t.Fatalf("full set containment must be certain, got %v", p)
		}
		if p := pushInsideProb(0, 8, br); p != 0 {
			t.Fatalf("empty set containment must be impossible, got %v", p)
		}
		prev := -1.0
		for d := 0; d <= 8; d++ {
			p := pushInsideProb(d, 8, br)
			if p < prev {
				t.Fatalf("pushInsideProb not monotone at d=%d", d)
			}
			prev = p
		}
	}
}
