package cobrawalk_test

import (
	"testing"

	"cobrawalk/internal/process"
	"cobrawalk/internal/process/difftest"
	"cobrawalk/internal/rng"
)

// BenchmarkReferenceStep measures the difftest reference engines
// through the same harness as BenchmarkProcessStep (same graph, same
// collector, same trial shape), so the native-vs-reference speedup can
// be read off one benchmark run instead of reconstructed from git
// history: go test -run NONE -bench 'ProcessStep|ReferenceStep' .
func BenchmarkReferenceStep(b *testing.B) {
	g := buildRandomRegular(b, 1<<14, 8)
	starts := []int32{0}
	for _, name := range []string{process.Cobra, process.BIPS} {
		b.Run(name, func(b *testing.B) {
			col := process.NewCollector(g.N())
			col.Reserve(1 << 20)
			p, err := difftest.Reference(name)(g, process.Config{Observer: col.Observe})
			if err != nil {
				b.Fatal(err)
			}
			r := rng.New(1)
			trial := func() int {
				res, err := process.RunCollect(nil, p, col, r, 1<<20, starts...)
				if err != nil {
					b.Fatal(err)
				}
				return res.Rounds
			}
			trial()
			var rounds int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rounds += int64(trial())
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		})
	}
}
