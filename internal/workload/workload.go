package workload

import (
	"fmt"
	"math/big"
	"math/rand"

	"repro/internal/constraint"
	"repro/internal/generators"
	"repro/internal/logic"
	"repro/internal/plan"
	"repro/internal/relation"
)

// PreferenceConfig sizes a preference tournament.
type PreferenceConfig struct {
	// Products is the number of distinct products.
	Products int
	// Prefs is the number of preference facts to draw.
	Prefs int
	// ConflictRate is the fraction of drawn preferences that also insert
	// their symmetric (violating) counterpart.
	ConflictRate float64
	Seed         int64
}

// Preferences generates a Pref database with controlled symmetric
// conflicts, plus the paper's asymmetry denial constraint.
func Preferences(cfg PreferenceConfig) (*relation.Database, *constraint.Set) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := relation.NewDatabase()
	product := func(i int) string { return fmt.Sprintf("p%d", i) }
	for len(d.Facts()) < cfg.Prefs {
		i := rng.Intn(cfg.Products)
		j := rng.Intn(cfg.Products)
		if i == j {
			continue
		}
		a, b := product(i), product(j)
		rev := relation.NewFact("Pref", b, a)
		if d.Contains(rev) && rng.Float64() >= cfg.ConflictRate {
			continue // avoid creating a conflict beyond the configured rate
		}
		d.Insert(relation.NewFact("Pref", a, b))
		if rng.Float64() < cfg.ConflictRate {
			d.Insert(rev)
		}
	}
	x, y := logic.Var("x"), logic.Var("y")
	dc := constraint.MustDC([]logic.Atom{
		logic.NewAtom("Pref", x, y),
		logic.NewAtom("Pref", y, x),
	})
	return d, constraint.NewSet(dc)
}

// KeyConfig sizes a key-violating relation R(k, v).
type KeyConfig struct {
	// Keys is the number of distinct key values.
	Keys int
	// Violations is the number of keys that receive a second conflicting
	// tuple (each violating key gets exactly two tuples; the rest get one).
	Violations int
	Seed       int64
}

// KeyViolations generates R(k,v) facts where `Violations` keys carry two
// distinct values, together with the key EGD R(x,y), R(x,z) → y = z.
func KeyViolations(cfg KeyConfig) (*relation.Database, *constraint.Set) {
	if cfg.Violations > cfg.Keys {
		cfg.Violations = cfg.Keys
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := relation.NewDatabase()
	for i := 0; i < cfg.Keys; i++ {
		k := fmt.Sprintf("k%d", i)
		d.Insert(relation.NewFact("R", k, fmt.Sprintf("v%d", rng.Intn(1000))))
		if i < cfg.Violations {
			d.Insert(relation.NewFact("R", k, fmt.Sprintf("w%d", rng.Intn(1000))))
		}
	}
	x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
	key := constraint.MustEGD(
		[]logic.Atom{logic.NewAtom("R", x, y), logic.NewAtom("R", x, z)},
		y, z,
	)
	return d, constraint.NewSet(key)
}

// CliqueConfig sizes a huge-sequence-space / easy-structure instance.
type CliqueConfig struct {
	// Groups is the number of violating key groups (conflict cliques).
	Groups int
	// GroupSize is the number of facts per violating group (≥ 2; each
	// group is one key carrying GroupSize distinct values).
	GroupSize int
	// Core is the number of conflict-free facts (unique keys with a
	// single value) — the certain backbone.
	Core int
	Seed int64
}

// Cliques generates R(k,v) where Groups keys carry GroupSize conflicting
// values each and Core keys carry exactly one, with the key EGD
// R(x,y), R(x,z) → y = z. The family is built so the chain blows up
// while the logic stays shallow: each size-g clique alone has
// Σ_{j<g} g!/j! absorbing sequences and the full instance interleaves
// them across groups, so total sequences grow super-exponentially in
// Groups (a few dozen groups of size 4 pass 2^63), while the certain
// answers of Q(x) = ∃y R(x,y) are exactly the Core keys — every
// violating group can be emptied by justified deletions, so none of its
// keys is certain. The SAT engine decides that from Groups at-most-one
// constraints without exploring any chain; the DAG engine must merge
// (GroupSize+1)^Groups databases.
func Cliques(cfg CliqueConfig) (*relation.Database, *constraint.Set) {
	if cfg.GroupSize < 2 {
		cfg.GroupSize = 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := relation.NewDatabase()
	for i := 0; i < cfg.Groups; i++ {
		k := fmt.Sprintf("g%d", i)
		for j := 0; j < cfg.GroupSize; j++ {
			d.Insert(relation.NewFact("R", k, fmt.Sprintf("v%d_%d", j, rng.Intn(1000))))
		}
	}
	for i := 0; i < cfg.Core; i++ {
		d.Insert(relation.NewFact("R", fmt.Sprintf("c%d", i), fmt.Sprintf("u%d", rng.Intn(1000))))
	}
	x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
	key := constraint.MustEGD(
		[]logic.Atom{logic.NewAtom("R", x, y), logic.NewAtom("R", x, z)},
		y, z,
	)
	return d, constraint.NewSet(key)
}

// ChainConfig sizes a conflict chain.
type ChainConfig struct {
	// Facts is the number of E facts; the conflict graph is a path with
	// Facts−1 overlapping violations.
	Facts int
}

// Chain generates the conflict-chain instance E(n0,n1), E(n1,n2), ... with
// the denial constraint ¬∃x,y,z (E(x,y) ∧ E(y,z)): consecutive facts
// conflict, so the conflict graph is a path rather than the cliques key
// violations produce. Chains are the canonical family on which the
// walk-induced and sequence-uniform semantics *provably differ*: the path
// is asymmetric (middle facts sit in two violations, end facts in one), so
// repairs reached by few long sequences carry less uniform mass than walk
// mass. At Facts = 3 the repair keeping both end facts has walk
// probability 1/5 but uniform probability 1/9 (9 complete sequences, one
// of which — deleting the middle fact — produces it).
func Chain(cfg ChainConfig) (*relation.Database, *constraint.Set) {
	d := relation.NewDatabase()
	for i := 0; i < cfg.Facts; i++ {
		d.Insert(relation.NewFact("E", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)))
	}
	x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
	dc := constraint.MustDC([]logic.Atom{
		logic.NewAtom("E", x, y),
		logic.NewAtom("E", y, z),
	})
	return d, constraint.NewSet(dc)
}

// RandomTrust assigns pseudo-random trust levels (k/denominator with
// 1 ≤ k ≤ denominator) to every fact of the database, mirroring the
// source-reliability levels of Example 5.
func RandomTrust(d *relation.Database, denominator int64, seed int64) *generators.Trust {
	rng := rand.New(rand.NewSource(seed))
	t := generators.NewTrust(big.NewRat(1, 2))
	for _, f := range d.Facts() {
		level := big.NewRat(1+rng.Int63n(denominator), denominator)
		if err := t.Set(f, level); err != nil {
			panic(err) // level is in (0,1] by construction
		}
	}
	return t
}

// InclusionConfig sizes an inclusion-dependency instance.
type InclusionConfig struct {
	// Rows is the number of R facts.
	Rows int
	// MissingRate is the fraction of R facts without the S fact required
	// by the inclusion dependency R(x,y) → ∃z S(y,z).
	MissingRate float64
	Seed        int64
}

// Inclusion generates an instance of the inclusion dependency
// R(x,y) → ∃z S(y,z) with a configurable fraction of dangling R facts.
// Repairing it exercises insertions (and hence failing-sequence handling).
func Inclusion(cfg InclusionConfig) (*relation.Database, *constraint.Set) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := relation.NewDatabase()
	for i := 0; i < cfg.Rows; i++ {
		y := fmt.Sprintf("y%d", i)
		d.Insert(relation.NewFact("R", fmt.Sprintf("x%d", i), y))
		if rng.Float64() >= cfg.MissingRate {
			d.Insert(relation.NewFact("S", y, fmt.Sprintf("z%d", i)))
		}
	}
	x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
	ind := constraint.MustTGD(
		[]logic.Atom{logic.NewAtom("R", x, y)},
		[]logic.Atom{logic.NewAtom("S", y, z)},
	)
	return d, constraint.NewSet(ind)
}

// IslandsConfig sizes a many-component conflict archipelago.
type IslandsConfig struct {
	// Islands is the number of disjoint conflict components.
	Islands int
	// FactsPerIsland is the number of E facts per island; each island is a
	// conflict chain with FactsPerIsland−1 overlapping violations.
	FactsPerIsland int
	// IsoRatio is the fraction of islands whose constants sort along the
	// chain. The remaining islands use randomly permuted node sequences:
	// still chains, isomorphic to the rest, but their constants sort in a
	// different order than their chain. core.ComputeFactored's canonical
	// structural key ignores constant order, so every island shares one
	// cache entry whatever IsoRatio is; only a key that depends on the
	// sorted fact order (the first-occurrence fallback) tells them apart.
	IsoRatio float64
	Seed     int64
}

// Islands generates Islands disjoint copies of the conflict chain of
// Chain, each over private constants, with the single denial constraint
// ¬∃x,y,z (E(x,y) ∧ E(y,z)). The conflict graph has exactly Islands
// components of FactsPerIsland facts each, which makes the family the
// canonical stress test for the factored engine: a million facts split
// into a hundred thousand ten-fact islands repair exactly, component by
// component, while the monolithic chain is unthinkably large.
func Islands(cfg IslandsConfig) (*relation.Database, *constraint.Set) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := relation.NewDatabase()
	iso := int(float64(cfg.Islands) * cfg.IsoRatio)
	nodes := make([]int, cfg.FactsPerIsland+1)
	for i := 0; i < cfg.Islands; i++ {
		for j := range nodes {
			nodes[j] = j
		}
		if i >= iso {
			rng.Shuffle(len(nodes), func(a, b int) { nodes[a], nodes[b] = nodes[b], nodes[a] })
		}
		// Zero-padded private constants: within an unshuffled island the
		// lexicographic fact order follows the chain.
		name := func(n int) string { return fmt.Sprintf("i%08d_n%03d", i, n) }
		for j := 0; j < cfg.FactsPerIsland; j++ {
			d.Insert(relation.NewFact("E", name(nodes[j]), name(nodes[j+1])))
		}
	}
	x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
	dc := constraint.MustDC([]logic.Atom{
		logic.NewAtom("E", x, y),
		logic.NewAtom("E", y, z),
	})
	return d, constraint.NewSet(dc)
}

// OrdersCatalog builds the relational workload for the Section 5
// rewriting experiment: an orders table with key violations joined against
// a clean customers table, as plan-catalog views over an interned
// database (the same substrate the chain machinery runs on).
//
//	orders(oid, cust, amount)   key: oid
//	customers(cust, region)
type OrdersCatalog struct {
	Catalog *plan.Catalog
	// ViolatingOrders counts order ids with conflicting rows.
	ViolatingOrders int
}

// OrdersConfig sizes the engine workload.
type OrdersConfig struct {
	Orders    int
	Customers int
	// ViolationRate is the fraction of order ids with a second conflicting
	// row.
	ViolationRate float64
	Seed          int64
}

// Orders generates the catalog.
func Orders(cfg OrdersConfig) *OrdersCatalog {
	rng := rand.New(rand.NewSource(cfg.Seed))
	cat := plan.NewCatalog()
	cat.MustAddTable("orders", "oid", "cust", "amount")
	cat.MustAddTable("customers", "cust", "region")
	violating := 0
	for i := 0; i < cfg.Orders; i++ {
		oid := fmt.Sprintf("o%d", i)
		cust := fmt.Sprintf("c%d", rng.Intn(cfg.Customers))
		cat.MustInsert("orders", oid, cust, fmt.Sprintf("%d", 10+rng.Intn(990)))
		if rng.Float64() < cfg.ViolationRate {
			violating++
			// Tables are fact sets, so the conflicting row must differ from
			// the first in cust or amount; redraw the (vanishingly rare)
			// exact duplicates.
			for {
				cust2 := fmt.Sprintf("c%d", rng.Intn(cfg.Customers))
				added, err := cat.Insert("orders", oid, cust2, fmt.Sprintf("%d", 10+rng.Intn(990)))
				if err != nil {
					panic(err)
				}
				if added {
					break
				}
			}
		}
	}
	regions := []string{"north", "south", "east", "west"}
	for i := 0; i < cfg.Customers; i++ {
		cat.MustInsert("customers", fmt.Sprintf("c%d", i), regions[rng.Intn(len(regions))])
	}
	if err := cat.DeclareKey("orders", "oid"); err != nil {
		panic(err)
	}
	cat.Seal()
	return &OrdersCatalog{Catalog: cat, ViolatingOrders: violating}
}
