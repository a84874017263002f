package relation_test

import (
	"fmt"
	"testing"

	"repro/internal/relation"
	"repro/internal/workload"
)

// BenchmarkSeal measures one Seal of an islands database (four facts per
// island, so nearly every constant is its own index bucket) after a
// one-fact change, the fold a resident database pays when its delta
// reaches the auto-seal floor. Seal is O(|D|); the per-position index
// build is most of it.
func BenchmarkSeal(b *testing.B) {
	for _, islands := range []int{400, 4000, 40000} {
		b.Run(fmt.Sprintf("facts=%d", 4*islands), func(b *testing.B) {
			d, _ := workload.Islands(workload.IslandsConfig{Islands: islands, FactsPerIsland: 4, IsoRatio: 0.9, Seed: 42})
			d.Seal()
			extra := relation.NewFact("E", "seal_x", "seal_y")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := d.Clone()
				c.Insert(extra)
				c.Seal()
			}
		})
	}
}
