// Command ocqad is the resident OCQA server: it loads a database and its
// constraints once, builds the factored walk-induced semantics, and then
// serves exact query answers over HTTP while absorbing fact insertions and
// retractions with work proportional to each delta. Readers never block:
// every query answers from an immutable snapshot published through an
// atomic pointer, and every response carries the snapshot version.
//
// Usage:
//
//	ocqad -db data.facts -constraints schema.rules \
//	      [-gen uniform|uniform-deletions|preference|trust[:seed]] \
//	      [-addr :8080] [-workers 4] [-max-states 1000000] \
//	      [-eps 0.05] [-delta 0.05] [-seed 1] [-log ocqad.oplog]
//
// File arguments also accept "inline:<text>". The generator must be local
// (per-component weights) and the constraints TGD-free — the factored
// engine's requirements. See cmd/ocqad/README.md for the HTTP API.
//
// -workers sizes the pool that explores conflict islands, in the initial
// build and in every publication; served answers are bit-identical for
// every value. -shards is deprecated and ignored.
// -log names an append-only ingest log: every published batch is recorded
// and replayed on the next startup against the same -db corpus, so a
// restart resumes from the exact pre-shutdown snapshot — same version,
// same stats — instead of the stale base database.
//
// The -smoke N flag runs a self-test instead of serving: it generates an
// islands workload, starts the server on a loopback port, drives N mixed
// ingest/query operations over real HTTP, cross-checks served
// probabilities against a from-scratch recompute and — when -log is set —
// restarts the server from the log and verifies the replayed snapshot
// matches exactly, then exits 0 on success. CI runs it under the race
// detector, with workers > 1 and a kill-and-replay cycle.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/serve"
)

func main() {
	var (
		dbPath    = flag.String("db", "", "database file (facts terminated by '.'), or inline:<text>")
		sigmaPath = flag.String("constraints", "", "constraint file (EGDs/DCs; TGD-free), or inline:<text>")
		genName   = flag.String("gen", "uniform", "chain generator: "+cliutil.GeneratorNames())
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "component workers per recompute (0 = GOMAXPROCS)")
		_         = flag.Int("shards", 0, "deprecated: ignored (publications explore on the -workers pool)")
		maxStates = flag.Int("max-states", 1_000_000, "per-component state budget (0 = unlimited)")
		eps       = flag.Float64("eps", 0.05, "additive error ε of the degradation estimator")
		delta     = flag.Float64("delta", 0.05, "failure probability δ of the degradation estimator")
		seed      = flag.Int64("seed", 1, "degradation estimator seed")
		logPath   = flag.String("log", "", "append-only ingest log, replayed on startup (empty = no persistence)")
		smoke     = flag.Int("smoke", 0, "run a self-test with N mixed operations instead of serving")
	)
	flag.Parse()
	opts := serve.Options{
		Workers:   *workers,
		MaxStates: *maxStates,
		Eps:       *eps,
		Delta:     *delta,
		Seed:      *seed,
		LogPath:   *logPath,
	}
	if *smoke > 0 {
		if err := runSmoke(*smoke, opts); err != nil {
			fmt.Fprintln(os.Stderr, "ocqad: smoke:", err)
			os.Exit(1)
		}
		fmt.Println("ocqad: smoke ok")
		return
	}
	if *dbPath == "" || *sigmaPath == "" {
		fmt.Fprintln(os.Stderr, "ocqad: -db and -constraints are required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*dbPath, *sigmaPath, *genName, *addr, opts); err != nil {
		fmt.Fprintln(os.Stderr, "ocqad:", err)
		os.Exit(1)
	}
}

func run(dbPath, sigmaPath, genName, addr string, opts serve.Options) error {
	d, err := cliutil.LoadDatabase(dbPath)
	if err != nil {
		return err
	}
	sigma, err := cliutil.LoadConstraints(sigmaPath)
	if err != nil {
		return err
	}
	gen, err := cliutil.ResolveGenerator(genName, d)
	if err != nil {
		return err
	}
	local, ok := gen.(core.LocalGenerator)
	if !ok {
		return fmt.Errorf("generator %s is not local; the resident engine needs per-component weights (uniform, uniform-deletions, trust)", gen.Name())
	}
	s, err := serve.New(d, sigma, local, opts)
	if err != nil {
		return err
	}
	defer s.Close()
	st := s.Stats()
	fmt.Printf("ocqad: %d facts, %d violations, %d conflict components (%d untouched facts); generator %s\n",
		st.Facts, st.Violations, st.Components, st.Untouched, gen.Name())

	srv := &http.Server{
		Addr:    addr,
		Handler: serve.Handler(s),
		// A slow or hostile client must not pin the listener: bound the
		// header, the whole request, and idle keep-alives.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			errc <- err
			return
		}
		fmt.Printf("ocqad: listening on %s\n", ln.Addr())
		errc <- srv.Serve(ln)
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("ocqad: shutting down")
	shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shctx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
