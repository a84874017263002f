package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/abc"
	"repro/internal/cliutil"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/markov"
	"repro/internal/parse"
	"repro/internal/plan"
	"repro/internal/practical"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/sampling"
	"repro/internal/sat"
	"repro/internal/serve"
)

// This file is the traced run: every workload replayed in process, with
// each call into a layer's public entry point timed from the benchmark's
// own code. The calls are the ones ocqa and ocqad make; only durable entry
// points are used (no factored-build internals, DAG sweeps or tree
// walkers). Untraced and traced replays alternate, and the ratio of their
// walls is the tracing overhead.

// maxStates is ocqa's default exact-mode state budget.
const maxStates = 1_000_000

// serveReplayOps is how many stream steps the in-process serve replay
// takes: about 1200 ingests at the 50% ingest ratio, enough for a p99.
const serveReplayOps = 2_400

// tracer accumulates the time and samples of each traced call, and
// counters. Off, it runs the calls untimed.
type tracer struct {
	on      bool
	total   map[string]time.Duration
	samples map[string][]time.Duration
	counts  map[string]float64
	wall    time.Duration
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, total: map[string]time.Duration{}, samples: map[string][]time.Duration{}, counts: map[string]float64{}}
}

// span runs f, timing it under name when tracing is on. Spans never nest,
// so a span's duration is its self time.
func (t *tracer) span(name string, f func()) {
	if !t.on {
		f()
		return
	}
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.total[name] += d
	t.samples[name] = append(t.samples[name], d)
}

func (t *tracer) count(name string, v float64) {
	if t.on {
		t.counts[name] += v
	}
}

// coverage is the share of the traced wall spent inside spans.
func (t *tracer) coverage() float64 {
	var self time.Duration
	for _, d := range t.total {
		self += d
	}
	return float64(self) / float64(t.wall)
}

// pct is the q-quantile of a span's samples in the given unit (0 when the
// span never ran).
func (t *tracer) pct(name string, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(t.samples[name]))
	for i, d := range t.samples[name] {
		xs[i] = float64(d) / float64(unit)
	}
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// replay answers one task in process exactly as ocqa does.
func replay(t *task, tr *tracer) (answers, error) {
	var texts [3]string
	for i, p := range []string{t.db, t.sigma, t.query} {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		texts[i] = string(raw)
	}
	var (
		d     *relation.Database
		sigma *constraint.Set
		q     *fo.Query
		err   error
	)
	tr.span("parse.ms", func() {
		if d, err = parse.Database(texts[0]); err != nil {
			return
		}
		if sigma, err = parse.Constraints(texts[1]); err != nil {
			return
		}
		q, err = parse.Query(texts[2])
	})
	if err != nil {
		return nil, err
	}
	sp := t.spec
	gen, err := cliutil.ResolveGenerator(orDefault(sp.gen, "uniform"), d)
	if err != nil {
		return nil, err
	}
	semMode, err := core.ParseSemanticsMode(orDefault(sp.semantics, "walk"))
	if err != nil {
		return nil, err
	}
	var inst *repair.Instance
	tr.span("repair.instance_ms", func() { inst, err = repair.NewInstanceOpts(d, sigma, repair.Options{}) })
	if err != nil {
		return nil, err
	}
	// The engines that explore the chain start from the root violations;
	// finding them here and seeding the instance moves that search out of
	// the engine span without repeating it.
	var vs *constraint.Violations
	if sp.mode == "exact" || sp.mode == "factored" || sp.mode == "approx" {
		tr.span("constraint.find_ms", func() { vs = constraint.FindViolations(inst.Initial(), sigma) })
		inst.SeedRootViolations(vs)
	}
	out := answers{}
	switch sp.mode {
	case "exact":
		var sem *core.Semantics
		tr.span("core.compute_ms", func() {
			sem, err = core.ComputeMode(inst, gen, markov.ExploreOptions{MaxStates: maxStates}, semMode)
		})
		if err != nil {
			return nil, err
		}
		tr.count("core.absorbing_states", float64(sem.AbsorbingStates))
		var as *core.AnswerSet
		tr.span("core.oca_ms", func() { as = sem.OCA(q) })
		exactAnswers(out, as)
	case "factored":
		local, ok := gen.(core.LocalGenerator)
		if !ok {
			return nil, fmt.Errorf("generator %s is not local", gen.Name())
		}
		tr.span("abc.partition_ms", func() { abc.NewPartition(vs) })
		var fac *core.Factored
		tr.span("core.factored_ms", func() {
			fac, err = core.ComputeFactored(inst, local, markov.ExploreOptions{MaxStates: maxStates, Workers: sp.workers})
		})
		if err != nil {
			return nil, err
		}
		tr.count("core.cache_hits", float64(fac.CacheHits))
		tr.count("core.cache_misses", float64(fac.CacheMisses))
		var as *core.AnswerSet
		tr.span("core.factored_oca_ms", func() { as, err = fac.OCA(q) })
		if err != nil {
			return nil, err
		}
		exactAnswers(out, as)
	case "sat":
		var enc *sat.Encoder
		tr.span("sat.encode_ms", func() { enc, err = sat.NewEncoder(d, sigma, sat.Options{}) })
		if err != nil {
			return nil, err
		}
		var res *sat.CertainResult
		tr.span("sat.solve_ms", func() { res, err = enc.CertainAnswers(q) })
		if err != nil {
			return nil, err
		}
		tr.count("sat.conflicts", float64(res.Stats.Conflicts))
		tr.count("sat.propagations", float64(res.Stats.Propagations))
		tr.count("sat.immediate", float64(res.Immediate))
		tr.count("sat.candidates", float64(res.Candidates))
		for _, tup := range res.Answers {
			out[fo.TupleString(tup)] = "1"
		}
	case "approx":
		est := &sampling.Estimator{Inst: inst, Gen: gen, Seed: sp.seed, Workers: sp.workers, Mode: semMode}
		var run *sampling.Run
		tr.span("sampling.estimate_ms", func() { run, err = est.EstimateAnswers(q, sp.eps, sp.delta) })
		if err != nil {
			return nil, err
		}
		tr.count("sampling.walks", float64(run.N))
		tr.count("sampling.successful", float64(run.SuccessfulWalks))
		if run.Weighted {
			tr.count("sampling.ess", run.ESS)
			tr.count("sampling.weighted_walks", float64(run.N))
		}
		for _, e := range run.Estimates {
			out[fo.TupleString(e.Tuple)] = fmt.Sprintf("%.4f", e.P)
		}
	case "practical":
		cat := plan.NewCatalogOn(d)
		tr.span("plan.derive_keys_ms", func() { cat.DeriveKeys(sigma) })
		r := &practical.Runner{Catalog: cat, Policy: practical.Policy{DropAll: sp.dropAll}, Seed: sp.seed, Workers: sp.workers}
		var res *practical.Result
		tr.span("practical.run_ms", func() { res, err = r.RunQueryWithGuarantee(q, sp.eps, sp.delta) })
		if err != nil {
			return nil, err
		}
		tr.count("practical.rounds", float64(res.N))
		for _, tf := range res.Tuples {
			out[fo.TupleString(tf.Row)] = fmt.Sprintf("%.4f", tf.P)
		}
	default:
		return nil, fmt.Errorf("unknown mode %q", sp.mode)
	}
	return out, nil
}

func exactAnswers(out answers, as *core.AnswerSet) {
	for _, a := range as.Answers {
		out[fo.TupleString(a.Tuple)] = a.P.RatString()
	}
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceAll is the traced run: each workload's replay gets a third of the
// run's seconds, and every per-layer metric is reported under its
// workload's name.
func (b *bench) traceAll() error {
	third := time.Duration(b.seconds / 3 * float64(time.Second))
	for _, w := range []string{"answer-exact", "answer-approx"} {
		if err := b.traceAnswers(w, third); err != nil {
			return err
		}
	}
	return b.traceServe(third)
}

// traceAnswers replays an answer workload's task list in process,
// alternating untraced and traced passes for the budget, and checks every
// in-process answer against ocqa's.
func (b *bench) traceAnswers(workload string, budget time.Duration) error {
	in := &inputs{dir: filepath.Join(b.work, workload)}
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return err
	}
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
		b.attempted++
		p, err := b.ocqa(t.args())
		if err != nil {
			b.fail("%s: %v", t.name, err)
			continue
		}
		t.want = parseAnswers(p.out)
	}
	var plain, traced []float64
	var passes []*tracer
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < budget {
		for _, on := range []bool{false, true} {
			tr := newTracer(on)
			t0 := time.Now()
			for _, t := range tasks {
				b.attempted++
				got, err := replay(t, tr)
				if err != nil {
					b.fail("%s in process: %v", t.name, err)
				} else if !got.equal(t.want) {
					b.fail("%s in process: answers %v differ from ocqa's %v", t.name, got, t.want)
				}
			}
			tr.wall = time.Since(t0)
			if on {
				traced = append(traced, tr.wall.Seconds())
				passes = append(passes, tr)
			} else {
				plain = append(plain, tr.wall.Seconds())
			}
		}
	}
	perPass := func(f func(*tracer) float64) float64 {
		xs := make([]float64, len(passes))
		for i, tr := range passes {
			xs[i] = f(tr)
		}
		return median(xs)
	}
	ms := func(name string) float64 {
		return perPass(func(tr *tracer) float64 { return float64(tr.total[name]) / 1e6 })
	}
	cnt := func(name string) float64 { return perPass(func(tr *tracer) float64 { return tr.counts[name] }) }
	put := func(name, unit string, v float64) { b.put(workload+"."+name, unit, v) }
	fmt.Printf("%s traced: %d passes; per-pass figures are medians over passes\n", workload, len(passes))
	for _, name := range []string{"parse.ms", "constraint.find_ms", "repair.instance_ms"} {
		put(name, "ms", ms(name))
	}
	if workload == "answer-exact" {
		for _, name := range []string{"core.compute_ms", "core.oca_ms", "abc.partition_ms", "core.factored_ms",
			"core.factored_oca_ms", "sat.encode_ms", "sat.solve_ms"} {
			put(name, "ms", ms(name))
		}
		put("core.absorbing_states", "count", cnt("core.absorbing_states"))
		put("core.cache_hit_ratio", "ratio", ratio(cnt("core.cache_hits"), cnt("core.cache_hits")+cnt("core.cache_misses")))
		put("sat.conflicts", "count", cnt("sat.conflicts"))
		put("sat.propagations", "count", cnt("sat.propagations"))
		put("sat.immediate_ratio", "ratio", ratio(cnt("sat.immediate"), cnt("sat.candidates")))
	} else {
		for _, name := range []string{"sampling.estimate_ms", "plan.derive_keys_ms", "practical.run_ms"} {
			put(name, "ms", ms(name))
		}
		put("sampling.walks", "count", cnt("sampling.walks"))
		put("sampling.success_ratio", "ratio", ratio(cnt("sampling.successful"), cnt("sampling.walks")))
		put("sampling.ess_ratio", "ratio", ratio(cnt("sampling.ess"), cnt("sampling.weighted_walks")))
		put("practical.rounds", "count", cnt("practical.rounds"))
	}
	put("trace.coverage", "ratio", perPass((*tracer).coverage))
	put("trace.overhead", "ratio", median(traced)/median(plain)-1)
	return nil
}

// traceServe measures serve-ingest's layers: a short open-loop phase over
// HTTP (for the HTTP-side split and the server's publication counters),
// then an untraced and a traced in-process replay of the corpus build and
// of one connection's stream.
func (b *bench) traceServe(budget time.Duration) error {
	const workload = "serve-ingest"
	in := &inputs{dir: filepath.Join(b.work, workload)}
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return err
	}
	c := b.serveCorpus(in)
	if in.err != nil {
		return in.err
	}
	put := func(name, unit string, v float64) { b.put(workload+"."+name, unit, v) }

	d, err := b.startDaemon(c.db, c.sigma, 0)
	if err != nil {
		return err
	}
	defer d.stop()
	cl, err := newClient(b, d.url, c)
	if err != nil {
		return err
	}
	ol := cl.openLoop(budget / 2)
	b.attempted += len(ol.lag)
	stats, err := cl.stats()
	if err != nil {
		return err
	}
	b.attempted++
	if err := d.stop(); err != nil {
		b.fail("%v", err)
	}
	b.checkHealth(ol)
	for _, m := range cl.report(ol, stats) {
		put("http."+m.name, m.unit, m.value)
	}

	plain := newTracer(false)
	if err := b.replayServe(c, plain); err != nil {
		return err
	}
	tr := newTracer(true)
	if err := b.replayServe(c, tr); err != nil {
		return err
	}
	for _, name := range []string{"parse.corpus_s", "constraint.find_s", "abc.partition_s", "core.factored_build_s", "serve.new_s"} {
		put(name, "s", tr.total[name].Seconds())
	}
	put("serve.ingest_ms_p50", "ms", tr.pct("serve.ingest", 0.5, time.Millisecond))
	put("serve.ingest_ms_p99", "ms", tr.pct("serve.ingest", 0.99, time.Millisecond))
	for _, name := range []string{"relation.clone", "constraint.delta", "abc.update", "serve.fact", "serve.cp"} {
		put(name+"_us_p50", "us", tr.pct(name, 0.5, time.Microsecond))
	}
	reads := append(append([]time.Duration(nil), tr.samples["serve.fact"]...), tr.samples["serve.cp"]...)
	readUs := make([]float64, len(reads))
	for i, r := range reads {
		readUs[i] = float64(r) / 1e3
	}
	put("serve.http_us_p50", "us", median(ol.read)*1e3-median(readUs))
	put("trace.coverage", "ratio", tr.coverage())
	put("trace.overhead", "ratio", float64(tr.wall)/float64(plain.wall)-1)
	return nil
}

// replayServe rebuilds the served state the way ocqad does and replays the
// first serveReplayOps steps of connection 0's stream against serve.Server,
// while replaying each ingest's copy-on-write clone, violation delta and
// partition update on a shadow state, as Server.Ingest performs them.
func (b *bench) replayServe(c *corpus, tr *tracer) error {
	dbText, err1 := os.ReadFile(c.db)
	sigText, err2 := os.ReadFile(c.sigma)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("reading corpus: %v %v", err1, err2)
	}
	t0 := time.Now()
	var (
		d     *relation.Database
		sigma *constraint.Set
		err   error
	)
	tr.span("parse.corpus_s", func() {
		if d, err = parse.Database(string(dbText)); err == nil {
			sigma, err = parse.Constraints(string(sigText))
		}
	})
	if err != nil {
		return err
	}
	gen, err := cliutil.ResolveGenerator("uniform", d)
	if err != nil {
		return err
	}
	local := gen.(core.LocalGenerator)
	cur := d.Clone()
	cur.Seal()
	var vs *constraint.Violations
	tr.span("constraint.find_s", func() { vs = constraint.FindViolations(cur, sigma) })
	var part *abc.Partition
	tr.span("abc.partition_s", func() { part = abc.NewPartition(vs) })
	tr.span("core.factored_build_s", func() {
		var inst *repair.Instance
		if inst, err = repair.NewInstanceOpts(d, sigma, repair.Options{}); err != nil {
			return
		}
		inst.SeedRootViolations(vs)
		_, err = core.ComputeFactored(inst, local, markov.ExploreOptions{MaxStates: maxStates, Workers: b.workers})
	})
	if err != nil {
		return err
	}
	var s *serve.Server
	tr.span("serve.new_s", func() {
		s, err = serve.New(d, sigma, local, serve.Options{Workers: b.workers, Shards: b.workers, MaxStates: maxStates})
	})
	if err != nil {
		return err
	}
	defer s.Close()
	for i, op := range c.streams[0][:min(serveReplayOps, len(c.streams[0]))] {
		b.attempted++
		switch {
		case op.Ingest:
			tr.span("serve.ingest", func() { _, err = s.Ingest([]serve.Op{{Fact: op.Fact, Insert: op.Insert}}) })
			if err != nil {
				b.fail("in-process ingest: %v", err)
				continue
			}
			changed := []relation.Fact{op.Fact}
			var next *relation.Database
			tr.span("relation.clone", func() {
				next = cur.Clone()
				if op.Insert {
					next.Insert(op.Fact)
				} else {
					next.Delete(op.Fact)
				}
				next.Compact(4096)
			})
			var elim, intro []constraint.Violation
			tr.span("constraint.delta", func() {
				vs, elim, intro = constraint.UpdateViolationsDelta(next, sigma, vs, changed, op.Insert)
			})
			tr.span("abc.update", func() { part, _, _ = part.Update(elim, intro, changed) })
			cur = next
		case i%2 == 0:
			tr.span("serve.fact", func() { s.FactProbability(op.Fact) })
		default:
			args := op.Fact.ArgNames()
			q, err := parse.Query(cpQuery(args[0]))
			if err != nil {
				return err
			}
			tr.span("serve.cp", func() { _, _, _, err = s.CP(q, args[1:]) })
			if err != nil {
				b.fail("in-process CP: %v", err)
			}
		}
	}
	// The shadow state must agree with the server's on every count.
	if st := s.Stats(); st.Facts != cur.Size() || st.Violations != vs.Len() || st.Components != part.Len() {
		b.fail("shadow state (%d facts, %d violations, %d islands) differs from the server's %+v",
			cur.Size(), vs.Len(), part.Len(), st)
	}
	tr.wall = time.Since(t0)
	return nil
}
