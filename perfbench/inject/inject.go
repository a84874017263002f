// Package inject generates the benchmark's adversarial key-violation
// catalogs, following the evaluation set-up of CAvSAT (arXiv 1905.02828):
// a clean multi-table catalog over one shared entity-key domain into which
// key violations are injected at a chosen rate, with a chosen distribution
// of violating-group sizes, and with a chosen correlation between the
// tables that a key is conflicted in. Every table Ti(k, v) carries the key
// EGD Ti(X, Y), Ti(X, Z) -> Y = Z.
//
// The settings are realized exactly, up to rounding, rather than in
// expectation: the seed decides which keys are conflicted and which group
// gets which size, never how many. Catalogs of different seeds are then
// the same instance up to renaming, so an engine's cost does not move with
// the seed. The catalog records its own ground truth (the size of every
// group), so the benchmark can check engines against it and the package
// test can check the realized rates against the settings.
package inject

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/constraint"
	"repro/internal/logic"
	"repro/internal/relation"
)

// SizeWeight is one entry of the violating-group size distribution.
type SizeWeight struct {
	Size   int
	Weight float64
}

// Config sets the knobs of one catalog.
type Config struct {
	// Tables is the number of keyed tables T1..Tn.
	Tables int
	// Keys is the number of entity keys; every key has a group in every
	// table.
	Keys int
	// Rate is the inconsistency rate: the share of each table's key groups
	// that are violating (two or more distinct values).
	Rate float64
	// Sizes is the size distribution of violating groups (sizes ≥ 2,
	// weights need not be normalized).
	Sizes []SizeWeight
	// Correlation is the cross-table conflict correlation ρ ∈ [0, 1]: in
	// tables T2..Tn, a share ρ + (1−ρ)·Rate of the keys conflicted in T1 is
	// conflicted again, and the rest of the table's conflicts fall on keys
	// clean in T1, so every table keeps the rate while ρ = 0 makes the
	// tables independent and ρ = 1 makes them conflict on the same keys.
	Correlation float64
	Seed        int64
}

// Catalog is a generated instance with its ground truth.
type Catalog struct {
	DB     *relation.Database
	Sigma  *constraint.Set
	Tables []string
	// GroupSize[t][k] is the number of facts of key k in table t (1 for a
	// conflict-free group).
	GroupSize [][]int
}

// Stats are the realized properties of a catalog.
type Stats struct {
	// Rate is the realized share of violating groups over all tables.
	Rate float64
	// SizeFreq maps a violating-group size to its realized share among the
	// violating groups.
	SizeFreq map[int]float64
	// CondRate is the realized P(conflicted in Ti | conflicted in T1) over
	// tables T2..Tn (0 with a single table).
	CondRate float64
}

// KeyName names entity key i.
func KeyName(i int) string { return fmt.Sprintf("e%05d", i) }

// TableName names table t (0-based).
func TableName(t int) string { return fmt.Sprintf("T%d", t+1) }

// Generate builds the catalog.
func Generate(cfg Config) (*Catalog, error) {
	if cfg.Tables < 1 || cfg.Keys < 1 {
		return nil, fmt.Errorf("inject: need at least one table and one key, got %d tables, %d keys", cfg.Tables, cfg.Keys)
	}
	if cfg.Rate < 0 || cfg.Rate > 1 || cfg.Correlation < 0 || cfg.Correlation > 1 {
		return nil, fmt.Errorf("inject: rate %g and correlation %g must lie in [0, 1]", cfg.Rate, cfg.Correlation)
	}
	total := 0.0
	for _, sw := range cfg.Sizes {
		if sw.Size < 2 || sw.Weight < 0 {
			return nil, fmt.Errorf("inject: violating groups need size ≥ 2 and weight ≥ 0, got %+v", sw)
		}
		total += sw.Weight
	}
	if cfg.Rate > 0 && total == 0 {
		return nil, fmt.Errorf("inject: a positive rate needs a group-size distribution")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	round := func(x float64) int { return int(math.Round(x)) }
	nConf := round(cfg.Rate * float64(cfg.Keys))
	nRepeat := round((cfg.Correlation + (1-cfg.Correlation)*cfg.Rate) * float64(nConf))
	if nConf-nRepeat > cfg.Keys-nConf {
		// Too few clean keys to take the rest of the conflicts.
		nRepeat = nConf - (cfg.Keys - nConf)
	}

	c := &Catalog{DB: relation.NewDatabase(), GroupSize: make([][]int, cfg.Tables)}
	x, y, z := logic.Var("X"), logic.Var("Y"), logic.Var("Z")
	var keys []*constraint.Constraint
	var first []int // keys conflicted in T1, in a seeded order
	for t := 0; t < cfg.Tables; t++ {
		name := TableName(t)
		c.Tables = append(c.Tables, name)
		keys = append(keys, constraint.MustEGD(
			[]logic.Atom{logic.NewAtom(name, x, y), logic.NewAtom(name, x, z)}, y, z))

		var conflicted []int
		if t == 0 {
			first = rng.Perm(cfg.Keys)[:nConf]
			conflicted = first
		} else {
			inFirst := make([]bool, cfg.Keys)
			for _, k := range first {
				inFirst[k] = true
			}
			var clean []int
			for _, k := range rng.Perm(cfg.Keys) {
				if !inFirst[k] {
					clean = append(clean, k)
				}
			}
			again := append([]int(nil), first...)
			rng.Shuffle(len(again), func(i, j int) { again[i], again[j] = again[j], again[i] })
			conflicted = append(again[:nRepeat:nRepeat], clean[:nConf-nRepeat]...)
		}
		sizes := make([]int, cfg.Keys)
		for k := range sizes {
			sizes[k] = 1
		}
		for i, s := range sizeList(cfg.Sizes, total, len(conflicted), rng) {
			sizes[conflicted[i]] = s
		}
		c.GroupSize[t] = sizes
		for k, s := range sizes {
			for j := 0; j < s; j++ {
				c.DB.Insert(relation.NewFact(name, KeyName(k), fmt.Sprintf("v%d_%d", j, rng.Intn(1000))))
			}
		}
	}
	c.Sigma = constraint.NewSet(keys...)
	return c, nil
}

// sizeList returns n group sizes in a seeded order, each size appearing in
// proportion to its weight (largest remainders take the rounding).
func sizeList(dist []SizeWeight, total float64, n int, rng *rand.Rand) []int {
	counts := make([]int, len(dist))
	rems := make([]float64, len(dist))
	left := n
	for i, sw := range dist {
		exact := sw.Weight / total * float64(n)
		counts[i] = int(exact)
		rems[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rems {
			if rems[i] > rems[best] {
				best = i
			}
		}
		counts[best]++
		rems[best] = -1
	}
	var out []int
	for i, sw := range dist {
		for j := 0; j < counts[i]; j++ {
			out = append(out, sw.Size)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Stats measures the realized rate, size distribution, and cross-table
// conditional conflict rate.
func (c *Catalog) Stats() Stats {
	st := Stats{SizeFreq: map[int]float64{}}
	groups, violating, firstConf, bothConf := 0, 0, 0, 0
	for t, sizes := range c.GroupSize {
		for k, s := range sizes {
			groups++
			if t > 0 && c.GroupSize[0][k] >= 2 {
				firstConf++
				if s >= 2 {
					bothConf++
				}
			}
			if s >= 2 {
				violating++
				st.SizeFreq[s]++
			}
		}
	}
	if groups > 0 {
		st.Rate = float64(violating) / float64(groups)
	}
	for s := range st.SizeFreq {
		st.SizeFreq[s] /= float64(violating)
	}
	if firstConf > 0 {
		st.CondRate = float64(bothConf) / float64(firstConf)
	}
	return st
}

// Clean reports whether key k is conflict-free in every table — exactly
// the keys that are certain answers of the all-tables join on the key,
// since operational repairs may empty any violating group.
func (c *Catalog) Clean(k int) bool {
	for _, sizes := range c.GroupSize {
		if sizes[k] >= 2 {
			return false
		}
	}
	return true
}
