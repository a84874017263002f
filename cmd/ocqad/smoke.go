package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"reflect"
	"time"

	"repro/internal/abc"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/generators"
	"repro/internal/markov"
	"repro/internal/serve"
	"repro/internal/workload"
)

// runSmoke is the -smoke self-test: an end-to-end exercise of the resident
// server over a real loopback HTTP listener. It generates an islands
// workload, interleaves ingest batches and fact probes for n operations,
// mirrors every ingest on a local shadow database, and finally cross-checks
// the served probabilities of every island edge against a from-scratch
// factored recompute of the shadow. Run under -race this doubles as the
// concurrency smoke: HTTP handler goroutines race the writer loop by
// construction.
func runSmoke(n int, opts serve.Options) error {
	db, sigma, ops := workload.ServeMix(workload.ServeMixConfig{
		Islands:        120,
		FactsPerIsland: 4,
		IsoRatio:       0.8,
		Ops:            n,
		IngestRatio:    0.3,
		Seed:           7,
	})
	gen := generators.Uniform{}
	if opts.LogPath != "" {
		// A log left over from a previous run would replay foreign history
		// into this run's fresh base.
		if err := os.Remove(opts.LogPath); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	s, err := serve.New(db, sigma, gen, opts)
	if err != nil {
		return err
	}
	defer s.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: serve.Handler(s)}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	shadow := db.Clone()
	client := &http.Client{Timeout: 30 * time.Second}
	post := func(path string, req, resp any) error {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		r, err := client.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			var e struct {
				Error string `json:"error"`
			}
			json.NewDecoder(r.Body).Decode(&e)
			return fmt.Errorf("%s: HTTP %d: %s", path, r.StatusCode, e.Error)
		}
		return json.NewDecoder(r.Body).Decode(resp)
	}

	// Background probers keep reads in flight while the writer publishes
	// snapshots, so -race exercises the reader/writer boundary for real.
	probeStop := make(chan struct{})
	probeErr := make(chan error, 4)
	allFacts := db.Facts()
	for w := 0; w < 4; w++ {
		go func(w int) {
			i := w
			for {
				select {
				case <-probeStop:
					probeErr <- nil
					return
				default:
				}
				f := allFacts[i%len(allFacts)]
				i += 7
				var resp serve.FactResponse
				if err := post("/v1/fact", serve.FactRequest{Fact: f.String()}, &resp); err != nil {
					probeErr <- err
					return
				}
			}
		}(w)
	}

	ingests := 0
	for _, op := range ops {
		if op.Ingest {
			req := serve.IngestRequest{}
			if op.Insert {
				req.Insert = []string{op.Fact.String()}
				shadow.Insert(op.Fact)
			} else {
				req.Delete = []string{op.Fact.String()}
				shadow.Delete(op.Fact)
			}
			var resp serve.IngestResponse
			if err := post("/v1/ingest", req, &resp); err != nil {
				return err
			}
			ingests++
			if resp.Version != uint64(ingests) {
				return fmt.Errorf("ingest %d published version %d", ingests, resp.Version)
			}
		} else {
			var resp serve.FactResponse
			if err := post("/v1/fact", serve.FactRequest{Fact: op.Fact.String()}, &resp); err != nil {
				return err
			}
		}
	}

	close(probeStop)
	for w := 0; w < 4; w++ {
		if err := <-probeErr; err != nil {
			return err
		}
	}

	// Cross-check the final served state against a from-scratch recompute
	// of the shadow database.
	vs := constraint.FindViolations(shadow, sigma)
	part := abc.NewPartition(vs)
	fresh, err := core.ComputeFactoredDelta(shadow, sigma, gen, markov.ExploreOptions{MaxStates: opts.MaxStates}, core.FactoredOptions{}, core.FactoredDelta{Part: part})
	if err != nil {
		return err
	}
	checked := 0
	for _, f := range shadow.Facts() {
		want := fresh.FactProbability(f)
		var resp serve.FactResponse
		if err := post("/v1/fact", serve.FactRequest{Fact: f.String()}, &resp); err != nil {
			return err
		}
		if resp.P.Rat != want.RatString() {
			return fmt.Errorf("fact %s: served %s, from-scratch %s", f, resp.P.Rat, want.RatString())
		}
		checked++
	}
	st := s.Stats()
	if st.Version != uint64(ingests) {
		return fmt.Errorf("final version %d, want %d", st.Version, ingests)
	}
	fmt.Printf("smoke: %d ops (%d ingests), %d facts cross-checked; %d components, %d cumulative recomputes, %d cache shapes\n",
		len(ops), ingests, checked, st.Components, st.CumRecomputed, st.CacheShapes)

	// The probers share the client's transport, which keeps at most two
	// idle connections per host; under contention it dials spare
	// connections that end up idle without ever carrying a request. The
	// server holds those in StateNew, and Shutdown waits for StateNew
	// connections instead of closing them, so close them from this side
	// first.
	client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-errc; err != http.ErrServerClosed {
		return err
	}

	// Kill-and-replay: shut the server down, restart it from the op log
	// against the same base corpus, and require the replayed snapshot to
	// reproduce the pre-shutdown one exactly — stats field for field,
	// marginals bit for bit.
	if opts.LogPath != "" {
		s.Close()
		replayed, err := serve.New(db, sigma, gen, opts)
		if err != nil {
			return fmt.Errorf("replay restart: %w", err)
		}
		defer replayed.Close()
		if got := replayed.Stats(); !reflect.DeepEqual(got, st) {
			return fmt.Errorf("replayed stats diverge:\n  replayed %+v\n  live     %+v", got, st)
		}
		for _, f := range shadow.Facts() {
			want := fresh.FactProbability(f)
			got, _ := replayed.FactProbability(f)
			if got.Cmp(want) != 0 {
				return fmt.Errorf("replayed fact %s: %s, from-scratch %s", f, got.RatString(), want.RatString())
			}
		}
		fmt.Printf("smoke: replayed %d publications from %s; stats and marginals match exactly\n", st.Version, opts.LogPath)
		os.Remove(opts.LogPath)
	}
	return nil
}
