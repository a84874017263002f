package serve_test

import (
	"bytes"
	"encoding/json"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/generators"
	"repro/internal/intern"
	"repro/internal/markov"
	"repro/internal/parse"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/serve"
	"repro/internal/workload"
)

func httpFixture(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	db, sigma := workload.Islands(workload.IslandsConfig{Islands: 3, FactsPerIsland: 3, IsoRatio: 1, Seed: 2})
	s, err := serve.New(db, sigma, generators.Uniform{}, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.Handler(s))
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postJSON(t *testing.T, url string, req any, status int, resp any) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != status {
		t.Fatalf("%s: HTTP %d, want %d", url, r.StatusCode, status)
	}
	if resp != nil {
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			t.Fatal(err)
		}
	}
}

// postStatus posts req as JSON and returns only the response status,
// draining the body; races against shutdown use it where any of several
// statuses is acceptable.
func postStatus(url string, req any) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer r.Body.Close()
	return r.StatusCode, nil
}

// TestHTTPRoundTrip drives the full API surface: health, stats, a fact
// probe, an ingest that flips the probe's answer, a tuple query, and an
// answer-set query — checking versions advance and answers change with the
// data.
func TestHTTPRoundTrip(t *testing.T) {
	_, ts := httpFixture(t)

	r, err := http.Get(ts.URL + "/healthz")
	if err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", r.StatusCode, err)
	}
	r.Body.Close()

	var st serve.Stats
	res, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if st.Version != 0 || st.Components != 3 {
		t.Fatalf("initial stats: %+v", st)
	}

	// The first island is the chain n000→n001→n002; its head survives the
	// walk-induced repairs with some probability strictly inside (0, 1).
	probe := "E(i00000000_n000, i00000000_n001)"
	var fr serve.FactResponse
	postJSON(t, ts.URL+"/v1/fact", serve.FactRequest{Fact: probe}, http.StatusOK, &fr)
	if fr.Version != 0 || fr.P.Float <= 0 || fr.P.Float >= 1 {
		t.Fatalf("conflicted fact probe: %+v", fr)
	}

	// Deleting the island's other edge frees the probed fact: no violation
	// touches it anymore, so its probability becomes exactly 1.
	var ir serve.IngestResponse
	postJSON(t, ts.URL+"/v1/ingest", serve.IngestRequest{
		Delete: []string{"E(i00000000_n001, i00000000_n002)"},
	}, http.StatusOK, &ir)
	if ir.Version != 1 {
		t.Fatalf("ingest version = %d, want 1", ir.Version)
	}
	postJSON(t, ts.URL+"/v1/fact", serve.FactRequest{Fact: probe}, http.StatusOK, &fr)
	if fr.Version != 1 || fr.P.Rat != "1" {
		t.Fatalf("freed fact probe: %+v", fr)
	}

	var qr serve.QueryResponse
	postJSON(t, ts.URL+"/v1/query", serve.QueryRequest{
		Query: "Q(X,Y) := E(X,Y).",
		Tuple: []string{"i00000000_n000", "i00000000_n001"},
	}, http.StatusOK, &qr)
	if !qr.Exact || qr.P == nil || qr.P.Rat != "1" {
		t.Fatalf("tuple query: %+v", qr)
	}

	postJSON(t, ts.URL+"/v1/query", serve.QueryRequest{Query: "Q(X,Y) := E(X,Y)."}, http.StatusOK, &qr)
	if !qr.Exact || len(qr.Answers) == 0 {
		t.Fatalf("answer-set query: %+v", qr)
	}
	found := false
	for _, a := range qr.Answers {
		if len(a.Tuple) == 2 && a.Tuple[0] == "i00000000_n000" && a.P.Rat == "1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("answer set misses the certain tuple: %+v", qr.Answers)
	}
}

// TestHTTPErrors pins the failure surface: malformed facts and queries are
// 400s with a JSON error, unknown fields are rejected, and absent facts
// answer probability 0 rather than erroring.
func TestHTTPErrors(t *testing.T) {
	_, ts := httpFixture(t)

	postJSON(t, ts.URL+"/v1/fact", serve.FactRequest{Fact: "not a fact("}, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/v1/query", serve.QueryRequest{Query: "nope("}, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/v1/ingest", serve.IngestRequest{Insert: []string{"E(a"}}, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/v1/ingest", map[string]any{"bogus": 1}, http.StatusBadRequest, nil)

	var fr serve.FactResponse
	postJSON(t, ts.URL+"/v1/fact", serve.FactRequest{Fact: "E(ghost, town)"}, http.StatusOK, &fr)
	if fr.P.Rat != "0" {
		t.Fatalf("absent fact: %+v", fr)
	}
}

// TestHTTPTerminatedFactForm: facts arriving in the corpus file syntax —
// already terminated with "." — must parse on every endpoint, identically
// to the bare form.
func TestHTTPTerminatedFactForm(t *testing.T) {
	_, ts := httpFixture(t)
	var bare, terminated serve.FactResponse
	postJSON(t, ts.URL+"/v1/fact", serve.FactRequest{Fact: "E(i00000000_n000, i00000000_n001)"}, http.StatusOK, &bare)
	postJSON(t, ts.URL+"/v1/fact", serve.FactRequest{Fact: "E(i00000000_n000, i00000000_n001)."}, http.StatusOK, &terminated)
	if bare.P.Rat != terminated.P.Rat {
		t.Fatalf("terminated form answered %s, bare form %s", terminated.P.Rat, bare.P.Rat)
	}
	var ir serve.IngestResponse
	postJSON(t, ts.URL+"/v1/ingest", serve.IngestRequest{Insert: []string{"E(dot_a, dot_b)."}}, http.StatusOK, &ir)
	postJSON(t, ts.URL+"/v1/fact", serve.FactRequest{Fact: "E(dot_a, dot_b)"}, http.StatusOK, &bare)
	if bare.P.Rat != "1" {
		t.Fatalf("fact ingested in terminated form not served: %+v", bare)
	}
}

// TestHTTPBodyLimit: a request body past the MaxBytesReader bound is a
// clean 413, not an unbounded read.
func TestHTTPBodyLimit(t *testing.T) {
	_, ts := httpFixture(t)
	huge := serve.IngestRequest{Insert: []string{"E(" + string(bytes.Repeat([]byte{'a'}, 2<<20)) + ", b)"}}
	postJSON(t, ts.URL+"/v1/ingest", huge, http.StatusRequestEntityTooLarge, nil)
}

// TestHTTPTwoAtomQueryExact: /v1/query answers a two-atom conjunctive
// query exactly on a 200-island snapshot (a repair space far past the
// enumeration budget): the tuple's witnesses touch island 0 only, so only
// that island's repairs are enumerated. The values match the query evaluated on
// every repair of island 0 alone.
func TestHTTPTwoAtomQueryExact(t *testing.T) {
	db, sigma := workload.Islands(workload.IslandsConfig{Islands: 200, FactsPerIsland: 8, IsoRatio: 0.9, Seed: 1})
	s, err := serve.New(db, sigma, generators.Uniform{}, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.Handler(s))
	t.Cleanup(func() { ts.Close(); s.Close() })

	island0 := relation.NewDatabase()
	for _, f := range db.Facts() {
		if strings.HasPrefix(intern.Name(f.Args()[0]), "i00000000_") {
			island0.Insert(f)
		}
	}
	sem, err := core.Compute(repair.MustInstance(island0, sigma), generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		query string
		tuple []string
	}{
		// A two-edge path is itself a violation: exactly 0.
		{"Q(X, Z) := exists Y: (E(X, Y) & E(Y, Z)).", []string{"i00000000_n000", "i00000000_n002"}},
		// Two non-adjacent edges of island 0 survive together.
		{"Q(X, Z) := exists Y, W: (E(X, Y) & E(Z, W)).", []string{"i00000000_n000", "i00000000_n003"}},
	} {
		q, err := parse.Query(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		var qr serve.QueryResponse
		postJSON(t, ts.URL+"/v1/query", serve.QueryRequest{Query: tc.query, Tuple: tc.tuple}, http.StatusOK, &qr)
		if !qr.Exact || qr.P == nil {
			t.Fatalf("%s%v: %+v, want an exact answer", tc.query, tc.tuple, qr)
		}
		// Reference: evaluate the query on every repair of island 0.
		want := new(big.Rat)
		for _, r := range sem.Repairs {
			if q.Holds(r.DB, tc.tuple) {
				want.Add(want, r.P)
			}
		}
		if want.Quo(want, sem.SuccessP); qr.P.Rat != want.RatString() {
			t.Errorf("%s%v = %s, want %s (island 0 alone)", tc.query, tc.tuple, qr.P.Rat, want.RatString())
		}
	}
}
