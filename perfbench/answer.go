package main

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// This file runs the answer workloads: a closed loop with one client that
// starts one ocqa process per answer over a fixed task list. Every task's
// reference is computed once per run, outside the timed passes, with a
// second ocqa mode (or a known answer); the first warm-up output is checked
// against it, and every later output must repeat it exactly — the engines
// are deterministic for a fixed seed and any worker count.

// warmupPasses is how many untimed passes precede the timed ones; their
// median wall time is the answer workloads' setup_s. A pass takes a few
// tenths of a second, so a median of few would follow single slow passes.
const warmupPasses = 15

// spec is the ocqa configuration of one task; flags renders it.
type spec struct {
	mode, semantics, gen string
	eps, delta           float64
	seed                 int64
	workers              int
	dropAll              float64
}

func (s spec) flags() []string {
	sem, gen := s.semantics, s.gen
	if sem == "" {
		sem = "walk"
	}
	if gen == "" {
		gen = "uniform"
	}
	f := []string{"-mode", s.mode, "-semantics", sem, "-gen", gen}
	if s.mode == "approx" || s.mode == "practical" {
		f = append(f, "-eps", fmtFloat(s.eps), "-delta", fmtFloat(s.delta), "-seed", strconv.FormatInt(s.seed, 10))
	}
	if s.workers > 0 {
		f = append(f, "-workers", strconv.Itoa(s.workers))
	}
	if s.dropAll > 0 {
		f = append(f, "-drop-all", fmtFloat(s.dropAll))
	}
	return f
}

func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// answers maps a printed tuple, e.g. "(a, b)", to the first token of its
// printed value: an exact rational, a 1 for a certain answer, or a
// four-decimal estimate.
type answers map[string]string

// checker verifies a task's answers against its reference.
type checker func(got answers) error

// task is one entry of a workload's fixed task list.
type task struct {
	name string
	// engine is the engine the task exercises; the report shows each
	// engine's share of a pass.
	engine           string
	db, sigma, query string
	spec             spec
	// ref computes the reference once per run and returns the check.
	ref  func() (checker, error)
	want answers
}

func (t *task) args() []string {
	return append([]string{"-db", t.db, "-constraints", t.sigma, "-query", t.query}, t.spec.flags()...)
}

// proc is one finished ocqa process.
type proc struct {
	out   string
	wall  time.Duration
	cpu   time.Duration
	rssKB int64
}

// ocqa runs the binary to completion and reports its output, wall time
// from start to exit, CPU time, and peak resident set.
func (b *bench) ocqa(args []string) (proc, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command(filepath.Join(b.bin, "ocqa"), args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err := cmd.Run()
	p := proc{out: out.String(), wall: time.Since(t0)}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
			p.rssKB = ru.Maxrss
		}
	}
	if err != nil {
		return p, fmt.Errorf("ocqa %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(errb.String()))
	}
	return p, nil
}

// parseAnswers reads the answer lines of any ocqa mode's output. Approx
// mode may append a second, conditional-estimate section after a "note:"
// line; only the first section is the answer set.
func parseAnswers(out string) answers {
	a := answers{}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "note:") {
			break
		}
		if !strings.HasPrefix(line, "  (") {
			continue
		}
		tuple, val, ok := strings.Cut(strings.TrimSpace(line), " : ")
		if !ok {
			continue
		}
		a[tuple] = strings.Fields(val)[0]
	}
	return a
}

func (a answers) equal(o answers) bool {
	if len(a) != len(o) {
		return false
	}
	for k, v := range a {
		if o[k] != v {
			return false
		}
	}
	return true
}

// value parses a printed probability; a tuple absent from an answer set
// has probability 0.
func (a answers) value(tuple string) (float64, error) {
	s, ok := a[tuple]
	if !ok {
		return 0, nil
	}
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		return 0, fmt.Errorf("unparsable probability %q for %s", s, tuple)
	}
	f, _ := r.Float64()
	return f, nil
}

// reference runs ocqa once with another configuration of the inputs and
// returns its answers; with -corrupt-ref the first reference of the run
// has one value altered.
func (b *bench) reference(db, sigma, query string, s spec) (answers, error) {
	t := &task{db: db, sigma: sigma, query: query, spec: s}
	p, err := b.ocqa(t.args())
	if err != nil {
		return nil, err
	}
	ref := parseAnswers(p.out)
	if len(ref) == 0 {
		return nil, fmt.Errorf("reference %s printed no answers", strings.Join(t.args(), " "))
	}
	if b.corrupt {
		b.corrupt = false
		for k, v := range ref {
			if v == "1" {
				delete(ref, k)
			} else {
				ref[k] = "0"
			}
			break
		}
	}
	return ref, nil
}

// sameAs checks that a task prints exactly the answers of another
// configuration.
func (b *bench) sameAs(db, sigma, query string, s spec) func() (checker, error) {
	return func() (checker, error) {
		ref, err := b.reference(db, sigma, query, s)
		if err != nil {
			return nil, err
		}
		return func(got answers) error {
			if !got.equal(ref) {
				return fmt.Errorf("answers %v differ from %s reference %v", got, s.mode, ref)
			}
			return nil
		}, nil
	}
}

// known checks a task against fixed answers.
func (b *bench) known(want answers) func() (checker, error) {
	return func() (checker, error) {
		if b.corrupt {
			b.corrupt = false
			want = answers{"(corrupted)": "1"}
		}
		return func(got answers) error {
			if !got.equal(want) {
				return fmt.Errorf("answers %v, want %v", got, want)
			}
			return nil
		}, nil
	}
}

// within checks that every tuple's probability lies within tol of another
// configuration's (a tuple missing from one side counts as 0).
func (b *bench) within(tol float64, db, sigma, query string, s spec) func() (checker, error) {
	return func() (checker, error) {
		ref, err := b.reference(db, sigma, query, s)
		if err != nil {
			return nil, err
		}
		return func(got answers) error {
			for _, side := range []answers{got, ref} {
				for tuple := range side {
					g, err1 := got.value(tuple)
					r, err2 := ref.value(tuple)
					if err1 != nil || err2 != nil {
						return fmt.Errorf("%v %v", err1, err2)
					}
					if math.Abs(g-r) > tol {
						return fmt.Errorf("%s: %.4f vs %s reference %.4f (tolerance %g)", tuple, g, s.mode, r, tol)
					}
				}
			}
			return nil
		}, nil
	}
}

// certainOf checks that a task's (certain) answers are exactly the
// probability-1 answers of another configuration.
func (b *bench) certainOf(db, sigma, query string, s spec) func() (checker, error) {
	return func() (checker, error) {
		ref, err := b.reference(db, sigma, query, s)
		if err != nil {
			return nil, err
		}
		want := answers{}
		for tuple, v := range ref {
			if v == "1" {
				want[tuple] = "1"
			}
		}
		return func(got answers) error {
			if !got.equal(want) {
				return fmt.Errorf("certain set %v differs from the probability-1 answers of %s: %v", got, s.mode, want)
			}
			return nil
		}, nil
	}
}

// timedAnswer is one answer of a timed pass.
type timedAnswer struct {
	task *task
	proc proc
}

// answers runs an answer workload end to end.
func (b *bench) answers(workload string) error {
	in := &inputs{dir: b.work}
	var tasks []*task
	if workload == "answer-exact" {
		tasks = b.exactTasks(in)
	} else {
		tasks = b.approxTasks(in)
	}
	if in.err != nil {
		return in.err
	}
	for _, t := range tasks {
		chk, err := t.ref()
		if err != nil {
			return fmt.Errorf("reference for %s: %w", t.name, err)
		}
		// The first output is checked against the reference; later ones
		// must repeat it exactly.
		p, err := b.ocqa(t.args())
		b.attempted++
		if err != nil {
			b.fail("%s: %v", t.name, err)
			continue
		}
		t.want = parseAnswers(p.out)
		if err := chk(t.want); err != nil {
			b.fail("%s: %v", t.name, err)
		}
	}

	var setup []float64
	for i := 0; i < warmupPasses; i++ {
		t0 := time.Now()
		b.pass(tasks, nil)
		setup = append(setup, time.Since(t0).Seconds())
	}

	// Timed passes: whole passes only, so every run holds the same
	// multiset of tasks in the same proportions.
	var done []timedAnswer
	var rates []float64
	start := time.Now()
	for time.Since(start).Seconds() < b.seconds {
		t0 := time.Now()
		n := len(done)
		done = b.pass(tasks, done)
		rates = append(rates, float64(len(done)-n)/time.Since(t0).Seconds())
	}
	wall := time.Since(start).Seconds()

	var lat []float64
	var cpu time.Duration
	var rss int64
	byTask := map[string][]float64{}
	byEngine := map[string]float64{}
	for _, a := range done {
		ms := float64(a.proc.wall) / 1e6
		lat = append(lat, ms)
		byTask[a.task.name] = append(byTask[a.task.name], ms)
		byEngine[a.task.engine] += ms
		cpu += a.proc.cpu
		rss = max(rss, a.proc.rssKB)
	}
	if len(done) == 0 {
		return fmt.Errorf("no timed answer completed")
	}
	p99, q := tailQuantile(lat)
	fmt.Printf("%s: %d timed passes, %d answers in %.2f s (tasks per pass %d)\n", workload, len(rates), len(done), wall, len(tasks))
	b.put("setup_s", "s", median(setup))
	b.put("ops_per_s", "1/s", median(rates))
	b.put("latency_p50_ms", "ms", median(lat))
	b.put("latency_p95_ms", "ms", quantile(lat, 0.95))
	b.put("cpu_ms_per_op", "ms", float64(cpu)/1e6/float64(len(done)))
	b.put("peak_rss_mb", "MB", float64(rss)/1024)
	fmt.Println("per-workload names:")
	b.show("answers_per_s", "1/s", median(rates))
	b.show("answer_p50_ms", "ms", median(lat))
	b.show(fmt.Sprintf("answer_p99_ms (q=%.4f, n=%d)", q, len(lat)), "ms", p99)
	b.show("cpu_ms_per_answer", "ms", float64(cpu)/1e6/float64(len(done)))
	b.show("error_rate", "ratio", float64(b.failed)/float64(b.attempted))
	fmt.Println("per task p50 and engine share of pass wall:")
	for _, t := range tasks {
		b.show("task."+t.name+"_p50", "ms", median(byTask[t.name]))
	}
	engines := make([]string, 0, len(byEngine))
	for e := range byEngine {
		engines = append(engines, e)
	}
	sort.Strings(engines)
	for _, e := range engines {
		b.show("share."+e, "ratio", byEngine[e]/sum(lat))
	}
	return nil
}

// pass runs every task once, in order, checking each output against the
// verified first one, and appends the completed answers to done.
func (b *bench) pass(tasks []*task, done []timedAnswer) []timedAnswer {
	for _, t := range tasks {
		b.attempted++
		p, err := b.ocqa(t.args())
		if err != nil {
			b.fail("%s: %v", t.name, err)
			continue
		}
		if got := parseAnswers(p.out); !got.equal(t.want) {
			b.fail("%s: answers %v differ from the checked answers %v", t.name, got, t.want)
			continue
		}
		done = append(done, timedAnswer{t, p})
	}
	return done
}

// inputs writes the rendered input files of one run, keeping the first
// error.
type inputs struct {
	dir string
	err error
}

func (in *inputs) put(name, text string) string {
	path := filepath.Join(in.dir, name)
	if in.err == nil {
		in.err = os.WriteFile(path, []byte(text), 0o644)
	}
	return path
}
