package serve_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/abc"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/generators"
	"repro/internal/logic"
	"repro/internal/markov"
	"repro/internal/relation"
	"repro/internal/serve"
	"repro/internal/workload"
)

// snapProj is an order-insensitive, value-typed projection of a served
// snapshot: component structure, exact per-repair distributions, and the
// marginal of every database fact. Two snapshots with equal projections
// answer every atomic query identically.
type snapProj struct {
	Version    uint64
	Facts      []string
	Violations int
	Components []compProj
	Marginals  []string
}

type compProj struct {
	Facts   []string
	Repairs []repairProj
	Success string
}

type repairProj struct {
	Facts string
	P     string
	Seqs  string
}

func projectSnap(sn *serve.Snapshot) snapProj {
	p := snapProj{Version: sn.Version(), Violations: sn.Violations().Len()}
	facts := sn.DB.Facts()
	relation.SortFacts(facts)
	for _, f := range facts {
		p.Facts = append(p.Facts, f.String())
		p.Marginals = append(p.Marginals, sn.Fac.FactProbability(f).RatString())
	}
	p.Components = projectComponents(sn.Fac)
	return p
}

func projectComponents(fac *core.Factored) []compProj {
	var out []compProj
	for _, c := range fac.Components() {
		sem := c.Semantics()
		cp := compProj{Success: sem.SuccessP.RatString()}
		for _, cf := range c.Facts {
			cp.Facts = append(cp.Facts, cf.String())
		}
		for _, r := range sem.Repairs {
			cp.Repairs = append(cp.Repairs, repairProj{
				Facts: r.DB.Key(),
				P:     r.P.RatString(),
				Seqs:  r.SeqCount.String(),
			})
		}
		out = append(out, cp)
	}
	return out
}

// freshProj recomputes the factored semantics of db from scratch (no cache,
// no reuse) and projects it, as the ground truth for a served snapshot.
func freshProj(t *testing.T, db *relation.Database, sigma *constraint.Set, maxStates int) ([]compProj, []string) {
	t.Helper()
	vs := constraint.FindViolations(db, sigma)
	part := abc.NewPartition(vs)
	fac, err := core.ComputeFactoredDelta(db, sigma, generators.Uniform{},
		markov.ExploreOptions{MaxStates: maxStates}, core.FactoredOptions{NoCache: true}, core.FactoredDelta{Part: part})
	if err != nil {
		t.Fatalf("from-scratch recompute: %v", err)
	}
	var marg []string
	facts := db.Facts()
	relation.SortFacts(facts)
	for _, f := range facts {
		marg = append(marg, fac.FactProbability(f).RatString())
	}
	return projectComponents(fac), marg
}

func mixConfig(ops int, ingest float64, seed int64) workload.ServeMixConfig {
	return workload.ServeMixConfig{
		Islands:        12,
		FactsPerIsland: 4,
		IsoRatio:       0.5,
		Ops:            ops,
		IngestRatio:    ingest,
		Seed:           seed,
	}
}

func runMix(t *testing.T, s *serve.Server, ops []workload.ServeOp) *serve.Snapshot {
	t.Helper()
	var last *serve.Snapshot = s.Snapshot()
	for _, op := range ops {
		if !op.Ingest {
			s.FactProbability(op.Fact)
			continue
		}
		sn, err := s.Ingest([]serve.Op{{Fact: op.Fact, Insert: op.Insert}})
		if err != nil {
			t.Fatalf("ingest %v: %v", op, err)
		}
		last = sn
	}
	return last
}

// TestServeDeterministicAcrossWorkers: the same ingest stream served with
// Workers = 1..8, with and without the structural cache, publishes final
// snapshots whose projections — component structure, exact distributions,
// and every fact marginal — are bit-identical, and identical to a
// from-scratch recompute on the post-delta database (the served state never
// drifts from ComputeFactored semantics, and worker scheduling never leaks
// into answers). Every cache-on run also publishes the same Stats, field for
// field; the deprecated Shards option is one more input that changes
// nothing.
func TestServeDeterministicAcrossWorkers(t *testing.T) {
	db, sigma, ops := workload.ServeMix(mixConfig(80, 0.4, 11))
	var runs []serve.Options
	for workers := 1; workers <= 8; workers++ {
		for _, nocache := range []bool{false, true} {
			runs = append(runs, serve.Options{Workers: workers, NoCache: nocache})
		}
	}
	runs = append(runs, serve.Options{Workers: 3, Shards: 8})
	var want snapProj
	var wantStats serve.Stats
	for i, opts := range runs {
		s, err := serve.New(db, sigma, generators.Uniform{}, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		last := runMix(t, s, ops)
		got := projectSnap(last)
		st := last.Stats()
		s.Close()
		if i == 0 {
			want, wantStats = got, st
			wantComps, wantMarg := freshProj(t, last.DB, sigma, 0)
			if !reflect.DeepEqual(got.Components, wantComps) {
				t.Fatal("served components differ from from-scratch recompute")
			}
			if !reflect.DeepEqual(got.Marginals, wantMarg) {
				t.Fatal("served marginals differ from from-scratch recompute")
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: projection differs from workers=1", opts)
		}
		// Cache counters legitimately differ with the cache off; compare
		// the full stats among cache-on runs.
		if !opts.NoCache && !reflect.DeepEqual(st, wantStats) {
			t.Fatalf("%+v: stats differ from workers=1:\n  got  %+v\n  want %+v", opts, st, wantStats)
		}
	}
}

// TestServeRandomizedIngestEquivalence: a randomized ingest stream where
// every published snapshot is checked against ground truth — the
// violations (assembled from the partition's islands) against
// FindViolations, the island order and each island's violations against a
// from-scratch partition, the components and marginals against an
// uncached recompute — and the reuse accounting always balances (Reused +
// recomputed = components; the cache never serves a stale component). The
// stream mixes single ops with coalesced batches, among them batches that
// insert a fact and delete it again (or the reverse) before publishing.
func TestServeRandomizedIngestEquivalence(t *testing.T) {
	for _, seed := range []int64{3, 19, 57} {
		db, sigma, ops := workload.ServeMix(mixConfig(60, 0.6, seed))
		s, err := serve.New(db, sigma, generators.Uniform{}, serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		shadow := db.Clone()
		checked, undone := 0, 0
		for _, op := range ops {
			if !op.Ingest {
				continue
			}
			batch := []serve.Op{{Fact: op.Fact, Insert: op.Insert}}
			if rng.Intn(3) == 0 {
				// Undo the toggle inside the same batch, then redo it, so
				// the batch publishes the toggle after passing through the
				// state it started from.
				batch = append(batch, serve.Op{Fact: op.Fact, Insert: !op.Insert}, batch[0])
				undone++
			}
			for _, o := range batch {
				if o.Insert {
					shadow.Insert(o.Fact)
				} else {
					shadow.Delete(o.Fact)
				}
			}
			prev := s.Snapshot()
			sn, err := s.Ingest(batch)
			if err != nil {
				t.Fatalf("seed %d ingest %v: %v", seed, batch, err)
			}
			checkSnapshot(t, prev, sn, shadow, sigma)
			checked++
			if rng.Intn(4) == 0 {
				// A batch whose net effect is nothing: the fact goes back
				// and forth, and the publication must equal the state
				// before it.
				back := []serve.Op{{Fact: op.Fact, Insert: !op.Insert}, {Fact: op.Fact, Insert: op.Insert}}
				prev := sn
				sn, err := s.Ingest(back)
				if err != nil {
					t.Fatalf("seed %d ingest %v: %v", seed, back, err)
				}
				checkSnapshot(t, prev, sn, shadow, sigma)
				undone++
			}
		}
		if checked == 0 || undone == 0 {
			t.Fatalf("seed %d: stream checked %d ingests, %d with an in-batch undo", seed, checked, undone)
		}
		s.Close()
	}
}

// checkSnapshot compares a published snapshot with a from-scratch build
// over the shadow database, and its reuse count with the islands it shares
// with prev, the snapshot it was published over.
func checkSnapshot(t *testing.T, prev, sn *serve.Snapshot, shadow *relation.Database, sigma *constraint.Set) {
	t.Helper()
	wantVs := constraint.FindViolations(shadow, sigma)
	if got, want := sn.Violations().Keys(), wantVs.Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("version %d: served violations %v, want %v", sn.Version(), got, want)
	}
	want := abc.NewPartition(wantVs)
	if !reflect.DeepEqual(sn.Part.Components(), want.Components()) {
		t.Fatalf("version %d: served island order differs from rebuild", sn.Version())
	}
	for i, isl := range sn.Part.Islands() {
		if !reflect.DeepEqual(isl.Violations(), want.Islands()[i].Violations()) {
			t.Fatalf("version %d: island %d holds violations %v, want %v", sn.Version(), i, isl.Violations(), want.Islands()[i].Violations())
		}
		if c := sn.Fac.Components()[i]; !reflect.DeepEqual(c.Facts, isl.Facts) {
			t.Fatalf("version %d: component %d is not aligned with island %d", sn.Version(), i, i)
		}
	}
	st := sn.Stats()
	if st.Violations != wantVs.Len() || st.Components != want.Len() {
		t.Fatalf("version %d: stats count %d violations and %d components, want %d and %d",
			sn.Version(), st.Violations, st.Components, wantVs.Len(), want.Len())
	}
	shared := 0
	for _, isl := range sn.Part.Islands() {
		if prev.Part.IslandOf(isl.Facts[0]) == isl {
			shared++
		}
	}
	if st.Reused != shared || st.Reused+st.Recomputed != st.Components {
		t.Fatalf("version %d: reuse accounting broken: %d reused (%d islands carried) + %d recomputed, %d components",
			sn.Version(), st.Reused, shared, st.Recomputed, st.Components)
	}
	if st.CacheHits+st.CacheMisses > st.Recomputed {
		t.Fatalf("version %d: cache traffic %d+%d exceeds the %d recomputed components",
			sn.Version(), st.CacheHits, st.CacheMisses, st.Recomputed)
	}
	gotComps := projectComponents(sn.Fac)
	wantComps, wantMarg := freshProj(t, shadow, sigma, 0)
	if !reflect.DeepEqual(gotComps, wantComps) {
		t.Fatalf("version %d: served components differ from from-scratch recompute", sn.Version())
	}
	var gotMarg []string
	facts := shadow.Facts()
	relation.SortFacts(facts)
	for _, f := range facts {
		gotMarg = append(gotMarg, sn.Fac.FactProbability(f).RatString())
	}
	if !reflect.DeepEqual(gotMarg, wantMarg) {
		t.Fatalf("version %d: served marginals differ from from-scratch recompute", sn.Version())
	}
}

// TestServeBatchAtomicityAndNoops: a batch is applied atomically (one
// version bump) and a no-op batch publishes nothing.
func TestServeBatchAtomicityAndNoops(t *testing.T) {
	db, sigma := workload.Islands(workload.IslandsConfig{Islands: 4, FactsPerIsland: 3, IsoRatio: 1, Seed: 1})
	s, err := serve.New(db, sigma, generators.Uniform{}, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f1 := relation.NewFact("E", "x_batch", "y_batch")
	f2 := relation.NewFact("E", "y_batch", "z_batch")
	sn, err := s.Ingest([]serve.Op{{Fact: f1, Insert: true}, {Fact: f2, Insert: true}})
	if err != nil {
		t.Fatal(err)
	}
	if sn.Version() != 1 {
		t.Fatalf("batch of two published version %d, want 1", sn.Version())
	}
	// A fresh two-fact chain has three operational repairs ({f1}, {f2}, ∅,
	// each reached by one walk), so each fact survives with probability 1/3.
	if got := sn.Fac.FactProbability(f1).RatString(); got != "1/3" {
		t.Fatalf("marginal of %s = %s, want 1/3 (fresh two-fact chain)", f1, got)
	}
	again, err := s.Ingest([]serve.Op{{Fact: f1, Insert: true}})
	if err != nil {
		t.Fatal(err)
	}
	if again != sn {
		t.Fatal("no-op batch published a new snapshot")
	}
}

// TestServeDegradation: a non-atomic query whose exact enumeration exceeds
// the repair budget does not error — it degrades to the (ε, δ) estimator
// and reports exact = false, while atomic queries on the same server stay
// exact. This pins the serving behavior on over-budget requests.
func TestServeDegradation(t *testing.T) {
	// 25 two-fact islands: each has 2 repairs, so a lineage group spanning
	// all of them (2^25 repairs) blows the 2^20 enumeration budget while
	// each component stays trivial.
	db, sigma := workload.Islands(workload.IslandsConfig{Islands: 25, FactsPerIsland: 2, IsoRatio: 1, Seed: 5})
	s, err := serve.New(db, sigma, generators.Uniform{}, serve.Options{Eps: 0.2, Delta: 0.2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Q(x) := ∃y,z,w E(x,y) ∧ E(z,w) pairs x's fact with every fact of
	// every island, so its witnesses link all 25 components into one
	// lineage group.
	x, y, z, w := logic.Var("x"), logic.Var("y"), logic.Var("z"), logic.Var("w")
	nonAtomic := fo.MustQuery("Q", []logic.Term{x}, fo.Exists{Vars: []logic.Term{y, z, w}, F: fo.And{
		L: fo.Atom{A: logic.NewAtom("E", x, y)},
		R: fo.Atom{A: logic.NewAtom("E", z, w)},
	}})
	tuple := []string{"i00000003_n000"}
	p, exact, _, err := s.CP(nonAtomic, tuple)
	if err != nil {
		t.Fatalf("over-budget CP must degrade, got error: %v", err)
	}
	if exact {
		t.Fatal("over-budget CP claims exactness")
	}
	if f, _ := p.Float64(); f < 0 || f > 1 {
		t.Fatalf("estimate %v outside [0,1]", p)
	}

	atomic := fo.MustQuery("Q", []logic.Term{x, y}, fo.Atom{A: logic.NewAtom("E", x, y)})
	p2, exact2, _, err := s.CP(atomic, []string{"i00000003_n000", "i00000003_n001"})
	if err != nil {
		t.Fatal(err)
	}
	if !exact2 {
		t.Fatal("atomic query was not answered exactly")
	}
	if p2.RatString() != "1/3" {
		t.Fatalf("atomic CP = %s, want 1/3", p2.RatString())
	}

	// Deterministic degradation: the same query against the same snapshot
	// returns the same estimate.
	p3, _, _, err := s.CP(nonAtomic, tuple)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cmp(p3) != 0 {
		t.Fatalf("repeated degraded query differs: %v vs %v", p, p3)
	}
}

// TestServeConcurrentReadersWriter: readers hammer every query surface
// while the writer applies a long ingest stream; run under -race this
// checks the snapshot-isolation boundary. Readers must always observe a
// consistent snapshot (marginal defined, stats balanced).
func TestServeConcurrentReadersWriter(t *testing.T) {
	db, sigma, ops := workload.ServeMix(mixConfig(120, 1.0, 23))
	s, err := serve.New(db, sigma, generators.Uniform{}, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	facts := db.Facts()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				f := facts[rng.Intn(len(facts))]
				p, _ := s.FactProbability(f)
				if v, _ := p.Float64(); v < 0 || v > 1 {
					errs <- fmt.Errorf("marginal %v outside [0,1]", p)
					return
				}
				st := s.Stats()
				if st.Reused+st.Recomputed != st.Components {
					errs <- fmt.Errorf("inconsistent stats at version %d", st.Version)
					return
				}
			}
		}(w)
	}
	for _, op := range ops {
		if !op.Ingest {
			continue
		}
		if _, err := s.Ingest([]serve.Op{{Fact: op.Fact, Insert: op.Insert}}); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	s.Close()
	if _, err := s.Ingest([]serve.Op{{Fact: facts[0], Insert: false}}); err != serve.ErrClosed {
		t.Fatalf("Ingest after Close = %v, want ErrClosed", err)
	}
	if s.Snapshot() == nil {
		t.Fatal("queries must survive Close")
	}
}
