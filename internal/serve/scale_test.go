package serve_test

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/generators"
	"repro/internal/serve"
	"repro/internal/workload"
)

// medianIngestAlloc returns the median number of bytes allocated by one
// single-op Ingest on the islands mixed workload: every op toggles one
// island's middle edge, so each publication dissolves and rebuilds one
// island whatever the database size. The median skips the rare ingest
// whose delta search seals the resident database, an O(|D|) fold the
// copy-on-write substrate amortizes over hundreds of ingests.
func medianIngestAlloc(t *testing.T, islands int) uint64 {
	t.Helper()
	const ingests = 101
	db, sigma, ops := workload.ServeMix(workload.ServeMixConfig{
		Islands:        islands,
		FactsPerIsland: 4,
		IsoRatio:       1,
		Ops:            ingests,
		IngestRatio:    1,
		Seed:           42,
	})
	s, err := serve.New(db, sigma, generators.Uniform{}, serve.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var before, after runtime.MemStats
	allocs := make([]uint64, 0, len(ops))
	for _, op := range ops {
		runtime.ReadMemStats(&before)
		if _, err := s.Ingest([]serve.Op{{Fact: op.Fact, Insert: op.Insert}}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocs = append(allocs, after.TotalAlloc-before.TotalAlloc)
	}
	slices.Sort(allocs)
	return allocs[len(allocs)/2]
}

// TestIngestAllocScaleFree: a publication allocates in proportion to the
// islands it touches, not to the resident database. The median bytes per
// single-op ingest at 20,000 islands must stay within 2× of the median at
// 400 — an ingest that copied the violation set, the island list or a
// fact index of the whole database would grow 50×.
func TestIngestAllocScaleFree(t *testing.T) {
	small := medianIngestAlloc(t, 400)
	large := medianIngestAlloc(t, 20000)
	t.Logf("median bytes per ingest: %d at 400 islands, %d at 20,000", small, large)
	if large > 2*small {
		t.Fatalf("median ingest allocates %d B at 20,000 islands, more than 2× the %d B at 400", large, small)
	}
}
