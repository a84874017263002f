package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/generators"
	"repro/internal/relation"
	"repro/internal/workload"
)

// TestParseFact pins the accepted fact syntax: bare, "."-terminated, and
// whitespace-padded forms all parse to the same fact; multi-fact input and
// malformed text are rejected.
func TestParseFact(t *testing.T) {
	want := relation.NewFact("E", "a", "b")
	cases := []struct {
		in string
		ok bool
	}{
		{"E(a,b)", true},
		{"E(a, b)", true},
		{"E(a,b).", true},
		{"  E(a,b).  ", true},
		{"E(a,b)..", true},
		{"E(a,b). E(b,c).", false},
		{"E(a,b). E(b,c)", false},
		{"", false},
		{"E(a", false},
		{"E(a,b).x", false},
	}
	for _, c := range cases {
		f, err := parseFact(c.in)
		if c.ok {
			if err != nil {
				t.Errorf("parseFact(%q): %v", c.in, err)
			} else if f != want {
				t.Errorf("parseFact(%q) = %s, want %s", c.in, f, want)
			}
			continue
		}
		if err == nil {
			t.Errorf("parseFact(%q) accepted, want error", c.in)
		}
	}
}

// TestIngestCoalescing holds the first publication open with the apply
// hook while K single-op ingests queue behind it, then releases: the
// backlog must fold into exactly one further publication — every caller
// observing version 2 or later, MaxBatchOps recording the K-op batch — so
// N queued writers pay one recompute between them.
func TestIngestCoalescing(t *testing.T) {
	const queued = 8
	db, sigma := workload.Islands(workload.IslandsConfig{Islands: queued + 1, FactsPerIsland: 3, IsoRatio: 1, Seed: 3})
	gate := make(chan struct{})
	firstEntered := make(chan struct{})
	var once sync.Once
	testHookApply = func([]Op) {
		once.Do(func() {
			close(firstEntered)
			<-gate
		})
	}
	defer func() { testHookApply = nil }()

	s, err := New(db, sigma, generators.Uniform{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	edge := func(i int) relation.Fact {
		return relation.NewFact("E", fmt.Sprintf("i%08d_n000", i), fmt.Sprintf("i%08d_n001", i))
	}
	var wg sync.WaitGroup
	errc := make(chan error, queued+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Ingest([]Op{{Fact: edge(0)}}); err != nil {
			errc <- err
		}
	}()
	<-firstEntered
	// The coordinator is parked inside the first apply; everything sent now
	// lands in the queue behind it.
	for i := 1; i <= queued; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sn, err := s.Ingest([]Op{{Fact: edge(i)}})
			if err != nil {
				errc <- err
				return
			}
			if sn.Version() < 2 {
				errc <- fmt.Errorf("queued ingest %d published version %d, want ≥ 2", i, sn.Version())
			}
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(s.reqs) < queued {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d ingests queued", len(s.reqs), queued)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := s.Stats()
	if st.Version != 2 {
		t.Fatalf("published %d versions, want 2 (one for the held op, one for the coalesced backlog)", st.Version)
	}
	if st.LastBatchOps != queued || st.MaxBatchOps != queued {
		t.Fatalf("batch stats last=%d max=%d, want %d/%d", st.LastBatchOps, st.MaxBatchOps, queued, queued)
	}
	if st.CumOps != queued+1 {
		t.Fatalf("CumOps = %d, want %d", st.CumOps, queued+1)
	}
}

type failingWriter struct {
	h http.Header
}

func (w *failingWriter) Header() http.Header       { return w.h }
func (w *failingWriter) WriteHeader(int)           {}
func (w *failingWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// TestWriteJSONReportsEncodeError: a mid-stream encode failure must reach
// the log, not vanish into a silently truncated 200.
func TestWriteJSONReportsEncodeError(t *testing.T) {
	var mu sync.Mutex
	var got string
	old := logf
	logf = func(format string, args ...any) {
		mu.Lock()
		got = fmt.Sprintf(format, args...)
		mu.Unlock()
	}
	defer func() { logf = old }()
	writeJSON(&failingWriter{h: http.Header{}}, http.StatusOK, map[string]int{"x": 1})
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(got, "client gone") {
		t.Fatalf("encode error not logged; log captured %q", got)
	}
}
