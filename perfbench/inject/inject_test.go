package inject

import (
	"math"
	"slices"
	"testing"

	"repro/internal/constraint"
	"repro/internal/parse"
)

func TestRealizedRatesMatchSettings(t *testing.T) {
	for _, cfg := range []Config{
		{Tables: 3, Keys: 20000, Rate: 0.2, Sizes: []SizeWeight{{2, 0.6}, {3, 0.3}, {5, 0.1}}, Correlation: 0.5, Seed: 7},
		{Tables: 2, Keys: 997, Rate: 0.13, Sizes: []SizeWeight{{2, 1}, {4, 2}}, Correlation: 0, Seed: 8},
		{Tables: 4, Keys: 300, Rate: 0.3, Sizes: []SizeWeight{{3, 1}}, Correlation: 1, Seed: 9},
	} {
		c, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		// Counts are exact up to rounding one key per table.
		tol := 1.5 / float64(cfg.Keys)
		if math.Abs(st.Rate-cfg.Rate) > tol {
			t.Errorf("%+v: realized rate %.5f, want %.5f", cfg, st.Rate, cfg.Rate)
		}
		total := 0.0
		for _, sw := range cfg.Sizes {
			total += sw.Weight
		}
		conflicted := cfg.Rate * float64(cfg.Keys)
		for _, sw := range cfg.Sizes {
			if got, want := st.SizeFreq[sw.Size], sw.Weight/total; math.Abs(got-want) > 1.5/conflicted {
				t.Errorf("%+v: size %d share %.4f, want %.4f", cfg, sw.Size, got, want)
			}
		}
		if len(st.SizeFreq) != len(cfg.Sizes) {
			t.Errorf("%+v: realized sizes %v", cfg, st.SizeFreq)
		}
		want := cfg.Correlation + (1-cfg.Correlation)*cfg.Rate
		if math.Abs(st.CondRate-want) > 1.5/conflicted {
			t.Errorf("%+v: conditional conflict rate %.4f, want %.4f", cfg, st.CondRate, want)
		}
	}
}

func TestGroundTruthMatchesViolations(t *testing.T) {
	c, err := Generate(Config{Tables: 2, Keys: 300, Rate: 0.3, Sizes: []SizeWeight{{2, 1}, {4, 1}}, Correlation: 0.8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	facts, vios := 0, 0
	for _, sizes := range c.GroupSize {
		for _, s := range sizes {
			facts += s
			// A group of size s yields s·(s−1) ordered violations of its
			// key EGD.
			vios += s * (s - 1)
		}
	}
	if c.DB.Size() != facts {
		t.Fatalf("database holds %d facts, ground truth %d", c.DB.Size(), facts)
	}
	if got := constraint.FindViolations(c.DB, c.Sigma).Len(); got != vios {
		t.Errorf("%d violations, ground truth predicts %d", got, vios)
	}
	db, err := parse.Database(parse.RenderDatabase(c.DB))
	if err != nil || db.Size() != c.DB.Size() {
		t.Fatalf("render/reparse: %v", err)
	}
	if _, err := parse.Constraints(parse.RenderConstraints(c.Sigma)); err != nil {
		t.Fatal(err)
	}
}

// The seed picks names, not shapes: catalogs of two seeds have the same
// multiset of group sizes per table, so engine costs do not move with it.
func TestSeedChangesNamesNotShape(t *testing.T) {
	cfg := Config{Tables: 2, Keys: 500, Rate: 0.1, Sizes: []SizeWeight{{2, 1}, {3, 1}}, Correlation: 0.3, Seed: 11}
	a, _ := Generate(cfg)
	b, _ := Generate(cfg)
	if parse.RenderDatabase(a.DB) != parse.RenderDatabase(b.DB) {
		t.Fatal("same seed produced different catalogs")
	}
	cfg.Seed++
	c, _ := Generate(cfg)
	if parse.RenderDatabase(a.DB) == parse.RenderDatabase(c.DB) {
		t.Fatal("different seeds produced identical catalogs")
	}
	for tb := range a.GroupSize {
		x, y := slices.Clone(a.GroupSize[tb]), slices.Clone(c.GroupSize[tb])
		slices.Sort(x)
		slices.Sort(y)
		if !slices.Equal(x, y) {
			t.Errorf("table %d: group sizes differ between seeds", tb)
		}
	}
	if a.Stats().CondRate != c.Stats().CondRate {
		t.Error("cross-table correlation differs between seeds")
	}
}
