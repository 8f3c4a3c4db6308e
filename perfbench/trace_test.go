package main

import (
	"testing"
	"time"
)

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func sp(id, parent int, layer string, a, b int) span {
	return span{ID: id, Parent: parent, Layer: layer, Start: at(a), End: at(b)}
}

// Self time is the span minus the union of its children: overlapping
// children (parallel workers) are not subtracted twice, and children
// sticking out of the parent are clipped to it.
func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := sp(1, 0, "sim", 0, 100)
	for _, c := range []struct {
		name     string
		children []span
		want     int
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(2, 1, "process", 10, 20), sp(3, 1, "process", 30, 50)}, 70},
		{"overlapping", []span{sp(2, 1, "process", 10, 40), sp(3, 1, "process", 20, 60)}, 50},
		{"nested", []span{sp(2, 1, "process", 10, 60), sp(3, 1, "stats", 20, 30)}, 50},
		{"clipped", []span{sp(2, 1, "process", -20, 10), sp(3, 1, "process", 90, 130)}, 80},
		{"outside", []span{sp(2, 1, "process", 120, 130)}, 100},
		{"unsorted", []span{sp(3, 1, "process", 50, 70), sp(2, 1, "process", 0, 55)}, 30},
	} {
		if got := selfTime(parent, c.children); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: self %v, want %dms", c.name, got, c.want)
		}
	}
}

// Each span keeps its own self time: two parallel trials both count as
// process time, while the reduce span keeps only the part no child
// covers.
func TestSelfByLayer(t *testing.T) {
	var tr tracer
	root := tr.add(0, "p", "sim", "reduce", at(0), at(100))
	tr.add(root, "p", "process", "trial", at(0), at(60))
	tr.add(root, "p", "process", "trial", at(10), at(70))
	tr.add(root, "p", "stats", "merge", at(70), at(90))
	self := selfByLayer(tr.snapshot())
	want := map[string]time.Duration{"sim": 10 * time.Millisecond, "process": 120 * time.Millisecond, "stats": 20 * time.Millisecond}
	for layer, d := range want {
		if self[layer] != d {
			t.Errorf("%s self %v, want %v", layer, self[layer], d)
		}
	}
}
