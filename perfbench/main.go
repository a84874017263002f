// Command perfbench is the repository's end-to-end benchmark. It drives
// the real binaries, ocqa and ocqad, built from the commit under test, over
// inputs generated from a seed and rendered to text files before any
// timing starts, checks every answer, and prints one JSON result line.
//
//	perfbench -bin DIR -workload answer-exact|answer-approx|serve-ingest \
//	          -seed N -seconds S -trace 0|1
//
// With -trace 0 it measures the workload's end-to-end metrics. With
// -trace 1 it instead replays every workload in process, timing the calls
// into each layer's public entry points, and prints the per-layer
// breakdown of all three workloads. perfbench/run.sh builds the binaries
// and this command, then runs it; see perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line perfbench prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one invocation: where the binaries and the
// scratch inputs live, the settings, and what has been measured so far.
type bench struct {
	bin     string
	work    string
	seed    int64
	seconds float64
	workers int
	// corrupt alters one reference answer per workload, so a run must
	// report failures; it proves the checks are live.
	corrupt bool

	attempted, failed int
	invalid           []string
	metrics           map[string]metric
}

// fail counts one failed or wrong operation; the first few are described
// on standard error.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if b.failed <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
	}
}

// put records a metric of the JSON result and prints it.
func (b *bench) put(name, unit string, v float64) {
	b.metrics[name] = metric{v, unit}
	b.show(name, unit, v)
}

// show prints a number of the human report only.
func (b *bench) show(name, unit string, v float64) {
	fmt.Printf("  %-44s %14.4f %s\n", name, v, unit)
}

func main() {
	var (
		workload = flag.String("workload", "", "answer-exact, answer-approx or serve-ingest")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 20, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced per-layer run instead of the end-to-end run")
		bin      = flag.String("bin", ".bench_build", "directory holding the ocqa and ocqad binaries")
		corrupt  = flag.Bool("corrupt-ref", false, "corrupt one reference answer (the run must then report failures)")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *bin, *corrupt); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int, bin string, corrupt bool) error {
	if workload != "answer-exact" && workload != "answer-approx" && workload != "serve-ingest" {
		return fmt.Errorf("unknown -workload %q: valid workloads are answer-exact, answer-approx, serve-ingest", workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	absBin, err := filepath.Abs(bin)
	if err != nil {
		return err
	}
	for _, name := range []string{"ocqa", "ocqad"} {
		if _, err := os.Stat(filepath.Join(absBin, name)); err != nil {
			return fmt.Errorf("binary missing (build it first with perfbench/run.sh): %w", err)
		}
	}
	work, err := os.MkdirTemp(absBin, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	b := &bench{
		bin:     absBin,
		work:    work,
		seed:    seed,
		seconds: seconds,
		workers: runtime.NumCPU(),
		corrupt: corrupt,
		metrics: map[string]metric{},
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d %s\n",
		workload, seed, seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	switch {
	case trace == 1:
		err = b.traceAll()
	case workload == "serve-ingest":
		err = b.serveIngest()
	default:
		err = b.answers(workload)
	}
	if err != nil {
		return err
	}
	for _, why := range b.invalid {
		fmt.Fprintln(os.Stderr, "perfbench: run invalid:", why)
	}
	if b.attempted == 0 {
		return fmt.Errorf("no operation was attempted")
	}
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("result: %d attempted, %d failed; metrics %s\n", b.attempted, b.failed, strings.Join(names, " "))
	line, err := json.Marshal(result{
		Correct:   b.failed == 0 && len(b.invalid) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
