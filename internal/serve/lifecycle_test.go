package serve_test

import (
	"errors"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/generators"
	"repro/internal/markov"
	"repro/internal/ops"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/serve"
	"repro/internal/workload"
)

// TestServeConcurrentStreams: several goroutines drive disjoint randomized
// ingest/query streams into one server concurrently — so publications
// coalesce arbitrarily and fresh islands explore on racing workers — and the
// final snapshot must still match a from-scratch recompute of the
// deterministic final database, for every worker count.
func TestServeConcurrentStreams(t *testing.T) {
	const streams = 4
	cfg := mixConfig(40, 0.5, 47)
	for _, workers := range []int{1, 3, 8} {
		db, sigma, streamOps := workload.ServeStreams(cfg, streams)
		s, err := serve.New(db, sigma, generators.Uniform{}, serve.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var wg sync.WaitGroup
		errc := make(chan error, streams)
		for _, ops := range streamOps {
			wg.Add(1)
			go func(ops []workload.ServeOp) {
				defer wg.Done()
				for _, op := range ops {
					if !op.Ingest {
						s.FactProbability(op.Fact)
						continue
					}
					if _, err := s.Ingest([]serve.Op{{Fact: op.Fact, Insert: op.Insert}}); err != nil {
						errc <- fmt.Errorf("ingest %v: %w", op, err)
						return
					}
				}
			}(ops)
		}
		wg.Wait()
		select {
		case err := <-errc:
			t.Fatalf("workers=%d: %v", workers, err)
		default:
		}

		// The streams' islands are disjoint, so the final database is the
		// same whatever the interleaving: replay them sequentially.
		shadow := db.Clone()
		for _, ops := range streamOps {
			for _, op := range ops {
				if !op.Ingest {
					continue
				}
				if op.Insert {
					shadow.Insert(op.Fact)
				} else {
					shadow.Delete(op.Fact)
				}
			}
		}
		final := s.Snapshot()
		if !final.DB.Equal(shadow) {
			t.Fatalf("workers=%d: final database diverged from the deterministic interleaving", workers)
		}
		wantComps, wantMarg := freshProj(t, shadow, sigma, 0)
		if !reflect.DeepEqual(projectComponents(final.Fac), wantComps) {
			t.Fatalf("workers=%d: concurrent serving diverged from from-scratch components", workers)
		}
		var gotMarg []string
		facts := shadow.Facts()
		relation.SortFacts(facts)
		for _, f := range facts {
			gotMarg = append(gotMarg, final.Fac.FactProbability(f).RatString())
		}
		if !reflect.DeepEqual(gotMarg, wantMarg) {
			t.Fatalf("workers=%d: concurrent serving diverged from from-scratch marginals", workers)
		}
		s.Close()
	}
}

// TestServeReplayRebuildsSnapshot: a server with an op log, shut down and
// restarted from the same base corpus, must republish the exact
// pre-shutdown snapshot — stats deep-equal, projection deep-equal — keep
// serving ingests afterwards, and survive a second restart the same way.
func TestServeReplayRebuildsSnapshot(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "ingest.oplog")
	opts := serve.Options{LogPath: logPath}
	db, sigma, ops := workload.ServeMix(mixConfig(60, 0.5, 53))

	s, err := serve.New(db, sigma, generators.Uniform{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	last := runMix(t, s, ops)
	wantStats := s.Stats()
	wantProj := projectSnap(last)
	if wantStats.Version == 0 {
		t.Fatal("stream published nothing; the replay check is vacuous")
	}
	s.Close()

	s2, err := serve.New(db, sigma, generators.Uniform{}, opts)
	if err != nil {
		t.Fatalf("restart with replay: %v", err)
	}
	if got := s2.Stats(); !reflect.DeepEqual(got, wantStats) {
		t.Fatalf("replayed stats diverge:\n  got  %+v\n  want %+v", got, wantStats)
	}
	if got := projectSnap(s2.Snapshot()); !reflect.DeepEqual(got, wantProj) {
		t.Fatal("replayed snapshot projection diverges from the pre-shutdown snapshot")
	}

	// The replayed server keeps serving and logging: one more effective
	// ingest, then a second restart must land one version further.
	var toggle serve.Op
	toggle.Fact = relation.NewFact("E", "i00000000_n001", "i00000000_n002")
	toggle.Insert = !s2.Snapshot().DB.Contains(toggle.Fact)
	sn, err := s2.Ingest([]serve.Op{toggle})
	if err != nil {
		t.Fatalf("post-replay ingest: %v", err)
	}
	if sn.Version() != wantStats.Version+1 {
		t.Fatalf("post-replay ingest published version %d, want %d", sn.Version(), wantStats.Version+1)
	}
	wantStats2 := s2.Stats()
	s2.Close()

	s3, err := serve.New(db, sigma, generators.Uniform{}, opts)
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	defer s3.Close()
	if got := s3.Stats(); !reflect.DeepEqual(got, wantStats2) {
		t.Fatalf("second replay diverges:\n  got  %+v\n  want %+v", got, wantStats2)
	}
}

// TestServeReplayLogRobustness: a torn trailing record (a crash mid-write)
// is dropped and truncated away on restart, while a complete but
// undecodable record is corruption and must fail the restart loudly.
func TestServeReplayLogRobustness(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "ingest.oplog")
	opts := serve.Options{LogPath: logPath}
	db, sigma, ops := workload.ServeMix(mixConfig(30, 0.6, 61))

	s, err := serve.New(db, sigma, generators.Uniform{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	runMix(t, s, ops)
	wantStats := s.Stats()
	s.Close()

	// Torn tail: half a record, no terminating newline.
	appendRaw(t, logPath, `{"ops":[{"p":"E","a":["x`)
	s2, err := serve.New(db, sigma, generators.Uniform{}, opts)
	if err != nil {
		t.Fatalf("restart over a torn tail: %v", err)
	}
	if got := s2.Stats(); !reflect.DeepEqual(got, wantStats) {
		t.Fatalf("torn tail changed the replayed stats:\n  got  %+v\n  want %+v", got, wantStats)
	}
	s2.Close()
	if data, err := os.ReadFile(logPath); err != nil || strings.Contains(string(data), `["x`) {
		t.Fatalf("torn tail not truncated away (err %v)", err)
	}

	// A complete garbage line is corruption, not a tail: refuse to serve.
	appendRaw(t, logPath, "not json\n")
	if _, err := serve.New(db, sigma, generators.Uniform{}, opts); err == nil {
		t.Fatal("restart over a corrupt record must fail")
	} else if !strings.Contains(err.Error(), "op log") {
		t.Fatalf("corrupt-record error does not name the log: %v", err)
	}
}

// TestServeFailedPublication: a batch whose build fails — here a bridge fact
// that merges two islands into a component past MaxStates, next to a
// deletion that alone would publish — returns the error and leaves
// everything as it was: the served snapshot, its version and stats, and the
// op log, which gains no record. A later valid ingest still publishes, and a
// restart replays to exactly the live server's final stats, so the failed
// build left no trace in the structural cache's counters either.
func TestServeFailedPublication(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "ingest.oplog")
	opts := serve.Options{MaxStates: 30, LogPath: logPath}
	db, sigma := workload.Islands(workload.IslandsConfig{Islands: 4, FactsPerIsland: 4, IsoRatio: 1, Seed: 83})
	s, err := serve.New(db, sigma, generators.Uniform{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	split := relation.NewFact("E", "i00000000_n001", "i00000000_n002")
	if _, err := s.Ingest([]serve.Op{{Fact: split}}); err != nil {
		t.Fatalf("valid ingest: %v", err)
	}
	before := s.Snapshot()
	wantStats := s.Stats()
	wantLog, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	bridge := relation.NewFact("E", "i00000001_n004", "i00000002_n000")
	split3 := relation.NewFact("E", "i00000003_n001", "i00000003_n002")
	if _, err := s.Ingest([]serve.Op{{Fact: split3}, {Fact: bridge, Insert: true}}); err == nil {
		t.Fatal("a merge past MaxStates published")
	}
	if s.Snapshot() != before || s.Snapshot().Version() != wantStats.Version {
		t.Fatal("a failed build replaced the served snapshot")
	}
	if got := s.Stats(); !reflect.DeepEqual(got, wantStats) {
		t.Fatalf("a failed build changed the stats:\n  got  %+v\n  want %+v", got, wantStats)
	}
	if got, err := os.ReadFile(logPath); err != nil || string(got) != string(wantLog) {
		t.Fatalf("a failed build touched the op log (err %v)", err)
	}

	sn, err := s.Ingest([]serve.Op{{Fact: split3}})
	if err != nil {
		t.Fatalf("valid ingest after a failed build: %v", err)
	}
	if sn.Version() != wantStats.Version+1 {
		t.Fatalf("ingest after a failed build published version %d, want %d", sn.Version(), wantStats.Version+1)
	}
	finalStats := s.Stats()
	s.Close()

	s2, err := serve.New(db, sigma, generators.Uniform{}, opts)
	if err != nil {
		t.Fatalf("restart with replay: %v", err)
	}
	defer s2.Close()
	if got := s2.Stats(); !reflect.DeepEqual(got, finalStats) {
		t.Fatalf("replay diverges from the live server:\n  got  %+v\n  want %+v", got, finalStats)
	}
}

// poisonGen is the uniform chain with integer weights that panic at every
// state offering to delete the poison fact. It is neither structural (the
// structural cache would rename the fact away) nor a generators.Uniform.
type poisonGen struct{ poison relation.Fact }

func (poisonGen) Name() string       { return "poison" }
func (poisonGen) LocalWeights() bool { return true }
func (poisonGen) Memoryless() bool   { return true }

func (poisonGen) Transitions(s *repair.State, exts []ops.Op) ([]*big.Rat, error) {
	return generators.Uniform{}.Transitions(s, exts)
}

func (g poisonGen) IntWeights(_ *repair.State, exts []ops.Op, dst []int64) ([]int64, bool, error) {
	for _, op := range exts {
		for _, f := range op.Facts() {
			if f == g.poison {
				panic("poisoned weights")
			}
		}
		dst = append(dst, 1)
	}
	return dst, true, nil
}

// TestServePanickingGeneratorFailsPublication: a generator panic inside a
// publication's component exploration fails that publication with
// markov.ErrPanicked instead of killing the server, and, as for any failed
// build (TestServeFailedPublication), the served snapshot and stats stay
// as they were and a later ingest still publishes — for one worker and
// for a pool.
func TestServePanickingGeneratorFailsPublication(t *testing.T) {
	db, sigma := workload.Islands(workload.IslandsConfig{Islands: 4, FactsPerIsland: 4, IsoRatio: 1, Seed: 83})
	poison := relation.NewFact("E", "i00000001_n004", "i00000002_n000")
	for _, workers := range []int{1, 4} {
		s, err := serve.New(db, sigma, poisonGen{poison: poison}, serve.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		before, wantStats := s.Snapshot(), s.Stats()
		if _, err := s.Ingest([]serve.Op{{Fact: poison, Insert: true}}); !errors.Is(err, markov.ErrPanicked) ||
			!strings.Contains(err.Error(), "poisoned weights") {
			t.Fatalf("workers=%d: poisoned ingest returned %v, want ErrPanicked", workers, err)
		}
		if s.Snapshot() != before {
			t.Fatalf("workers=%d: a panicking build replaced the served snapshot", workers)
		}
		if got := s.Stats(); !reflect.DeepEqual(got, wantStats) {
			t.Fatalf("workers=%d: a panicking build changed the stats:\n  got  %+v\n  want %+v", workers, got, wantStats)
		}
		split := relation.NewFact("E", "i00000000_n001", "i00000000_n002")
		if sn, err := s.Ingest([]serve.Op{{Fact: split}}); err != nil || sn.Version() != wantStats.Version+1 {
			t.Fatalf("workers=%d: ingest after a panicking build: %v", workers, err)
		}
		s.Close()
	}
}

func appendRaw(t *testing.T, path, chunk string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(chunk); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeIngestCloseRace races many Ingest callers against Close: every
// caller must get either a published snapshot or ErrClosed — never a hang,
// never a lost reply — and the watchdog turns a deadlock into a failure
// instead of a test timeout.
func TestServeIngestCloseRace(t *testing.T) {
	db, sigma := workload.Islands(workload.IslandsConfig{Islands: 8, FactsPerIsland: 3, IsoRatio: 1, Seed: 71})
	s, err := serve.New(db, sigma, generators.Uniform{}, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	start := make(chan struct{})
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			f := relation.NewFact("E", fmt.Sprintf("i%08d_n001", w), fmt.Sprintf("i%08d_n002", w))
			insert := false
			for i := 0; ; i++ {
				sn, err := s.Ingest([]serve.Op{{Fact: f, Insert: insert}})
				insert = !insert
				if err != nil {
					if err != serve.ErrClosed {
						errc <- fmt.Errorf("caller %d: %v", w, err)
					}
					return
				}
				if sn == nil {
					errc <- fmt.Errorf("caller %d: nil snapshot without error", w)
					return
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(10 * time.Millisecond)
	s.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("an Ingest caller hung across Close")
	}
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if s.Snapshot() == nil {
		t.Fatal("queries must survive Close")
	}
}

// TestHTTPIngestVsShutdown races in-flight HTTP ingests against Server.Close:
// every request must complete with 200 (published before the close won) or
// 503 (ErrClosed surfaced), never hang or fail transport-level.
func TestHTTPIngestVsShutdown(t *testing.T) {
	s, ts := httpFixture(t)
	const callers = 6
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	start := make(chan struct{})
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			fact := fmt.Sprintf("E(race_%d_a, race_%d_b)", w, w)
			for i := 0; i < 50; i++ {
				req := serve.IngestRequest{Insert: []string{fact}}
				if i%2 == 1 {
					req = serve.IngestRequest{Delete: []string{fact}}
				}
				status, err := postStatus(ts.URL+"/v1/ingest", req)
				if err != nil {
					errc <- fmt.Errorf("caller %d: %v", w, err)
					return
				}
				if status != 200 && status != 503 {
					errc <- fmt.Errorf("caller %d: HTTP %d, want 200 or 503", w, status)
					return
				}
				if status == 503 {
					return
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(5 * time.Millisecond)
	s.Close()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// After Close every ingest is a clean 503 and queries still answer.
	status, err := postStatus(ts.URL+"/v1/ingest", serve.IngestRequest{Insert: []string{"E(post, close)"}})
	if err != nil || status != 503 {
		t.Fatalf("ingest after Close: HTTP %d, %v; want 503", status, err)
	}
	var fr serve.FactResponse
	postJSON(t, ts.URL+"/v1/fact", serve.FactRequest{Fact: "E(ghost, town)"}, 200, &fr)
}
