package main

// The -lemmas mode: the per-lemma tables that reproduce the paper's
// Table 1 and its quantitative lemmas. Graphs come from the scenario
// registry (random-n<N>-s<seed>, and star and grid for E6) crossed with
// -sizes and -seeds; only E7 keeps its fixed disjoint-paths workloads,
// which no registered family covers. Full-APSP cells run the sweep's own
// runCell, on one warm Runner per scenario and table, so E1's rounds are
// the rounds of the EXPERIMENTS.json rows. The tables hold only distributed
// quantities, so every execution mode must render them byte for byte.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"congestapsp/internal/bford"
	"congestapsp/internal/blocker"
	"congestapsp/internal/congest"
	"congestapsp/internal/csssp"
	"congestapsp/internal/graph"
	"congestapsp/internal/qsink"
	"congestapsp/internal/unweighted"
	"congestapsp/pkg/apsp"
)

// lemmaTable is one -lemmas report section.
type lemmaTable struct {
	name  string
	print func(*lemmaRun)
}

// lemmaTables lists the sections in the order "all" prints them.
var lemmaTables = []lemmaTable{
	{"table1", (*lemmaRun).table1},
	{"blockersize", (*lemmaRun).blockerSize},
	{"selectionsteps", (*lemmaRun).selectionSteps},
	{"blockerrounds", (*lemmaRun).blockerRounds},
	{"qsink", (*lemmaRun).qsinkRounds},
	{"bottleneck", (*lemmaRun).bottleneck},
	{"goodset", (*lemmaRun).goodset},
	{"frames", (*lemmaRun).frames},
	{"hsweep", (*lemmaRun).hSweep},
	{"bandwidth", (*lemmaRun).bandwidthSweep},
	{"unweighted", (*lemmaRun).unweightedRounds},
}

func lemmaNames() string {
	names := make([]string, len(lemmaTables))
	for i, t := range lemmaTables {
		names[i] = t.name
	}
	return strings.Join(names, ",")
}

// parseLemmas resolves the -lemmas list; "all" selects every table.
func parseLemmas(s string) ([]lemmaTable, error) {
	var out []lemmaTable
	for _, tok := range splitList(s) {
		n := len(out)
		for _, t := range lemmaTables {
			if tok == "all" || tok == t.name {
				out = append(out, t)
			}
		}
		if len(out) == n {
			return nil, fmt.Errorf("unknown lemma table %q (want all or some of %s)", tok, lemmaNames())
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty lemma list")
	}
	return out, nil
}

// lemmaRun renders the tables for one execution mode.
type lemmaRun struct {
	out          io.Writer
	mode         string // "seq" or "sharded"
	sizes        []int
	seeds        []int64
	check        bool
	samples      int
	skipLastHops bool
	ctx          context.Context // canceled by SIGINT
	cellCtx      func() (context.Context, context.CancelFunc)
	interrupted  func()
	skipped      int // cells dropped on their -timeout
}

// runLemmas renders each table once per execution mode. The first mode's
// rendering streams to stdout; every later one must match it byte for
// byte, unless a cell blew its deadline and dropped a row.
func runLemmas(tables []lemmaTable, modes []string, quiet bool, base lemmaRun) {
	for _, t := range tables {
		var ref bytes.Buffer
		skipped := 0
		for i, mode := range modes {
			var buf bytes.Buffer
			l := base
			l.mode, l.out = mode, &buf
			if i == 0 {
				l.out = io.MultiWriter(os.Stdout, &ref)
			}
			start := time.Now()
			t.print(&l)
			l.printf("\n")
			if !quiet {
				fmt.Fprintf(os.Stderr, "%-14s %-8s %.0fms\n", t.name, mode, float64(time.Since(start).Microseconds())/1000)
			}
			skipped += l.skipped
			if i > 0 && skipped == 0 && !bytes.Equal(ref.Bytes(), buf.Bytes()) {
				log.Fatalf("lemmas: the %s table under %s diverged from %s (on stdout):\n%s", t.name, mode, modes[0], buf.Bytes())
			}
		}
	}
}

func (l *lemmaRun) printf(format string, a ...any) { fmt.Fprintf(l.out, format, a...) }

// skip classifies a cell's error: nil keeps the cell, a blown -timeout
// drops its row with a note on stderr, SIGINT exits through interrupted,
// and anything else is fatal.
func (l *lemmaRun) skip(err error, cell string) bool {
	switch {
	case err == nil:
		return false
	case l.ctx.Err() != nil:
		l.interrupted()
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintf(os.Stderr, "%-32s %-8s SKIPPED: %v\n", cell, l.mode, err)
		l.skipped++
		return true
	}
	log.Fatalf("%s %s: %v", cell, l.mode, err)
	return false
}

// build generates sc's graph in both representations.
func build(sc apsp.Scenario) (*apsp.Graph, *graph.Graph) {
	g, err := sc.Build()
	if err != nil {
		log.Fatal(err)
	}
	return g, internalGraph(g)
}

// warm builds sc's one warm Runner (and, under -check, its oracle) and
// returns the function every full-APSP cell of sc runs through: the
// sweep's runCell with the profile, hop parameter and bandwidth given
// (0 = defaults). ok=false means the cell blew its deadline.
func (l *lemmaRun) warm(sc apsp.Scenario, g *apsp.Graph) func(alg apsp.Algorithm, h, bw int) (r row, ok bool) {
	runner, err := apsp.NewRunner(g)
	if err != nil {
		log.Fatal(err)
	}
	var oracle func([][]int64) error
	if l.check {
		oracle = oracleFor(internalGraph(g), l.samples, sc.Seed)
	}
	return func(alg apsp.Algorithm, h, bw int) (row, bool) {
		opt := cellOptions(alg, l.mode, sc.Seed, l.skipLastHops)
		opt.HopParam, opt.Bandwidth = h, bw
		ctx, cancel := l.cellCtx()
		defer cancel()
		r, err := runCell(ctx, sc, runner, opt, oracle)
		return r, !l.skip(err, fmt.Sprintf("%s %v h=%d bw=%d", sc.Name(), alg, h, bw))
	}
}

// network builds a fresh simulation network for one protocol-level cell,
// armed with the cell's context and the run's execution mode.
func (l *lemmaRun) network(ctx context.Context, g *graph.Graph) *congest.Network {
	nw, err := congest.NewNetwork(g, 1)
	if err != nil {
		log.Fatal(err)
	}
	nw.Parallel = l.mode == "sharded"
	nw.SetContext(ctx)
	return nw
}

// collection builds the h-hop CSSSP out-trees of every source.
func (l *lemmaRun) collection(ctx context.Context, g *graph.Graph, h int) (*csssp.Collection, *congest.Network, error) {
	nw := l.network(ctx, g)
	srcs := make([]int, g.N)
	for i := range srcs {
		srcs[i] = i
	}
	coll, err := csssp.Build(nw, g, srcs, h, bford.Out)
	return coll, nw, err
}

// blockerCell runs one blocker construction over the h-hop collection of
// every source. Under -check the set must also cover every full-length
// path of a freshly built collection. nil means the cell blew its deadline.
func (l *lemmaRun) blockerCell(name string, g *graph.Graph, h int, par blocker.Params) *blocker.Result {
	ctx, cancel := l.cellCtx()
	defer cancel()
	coll, nw, err := l.collection(ctx, g, h)
	var res *blocker.Result
	if err == nil {
		res, err = blocker.Compute(nw, coll, par)
	}
	if err == nil && l.check {
		if coll, _, err = l.collection(ctx, g, h); err == nil {
			err = blocker.Verify(coll, res.InQ)
		}
	}
	if l.skip(err, fmt.Sprintf("%s blocker %v", name, par.Mode)) {
		return nil
	}
	return res
}

// qsinkCell runs one reversed q-sink delivery of the exact Step-5 values
// to Q. Under -check every blocker must end up with its exact distances.
// nil means the cell blew its deadline.
func (l *lemmaRun) qsinkCell(name string, g *graph.Graph, Q []int, par qsink.Params) *qsink.Stats {
	ctx, cancel := l.cellCtx()
	defer cancel()
	res, err := qsink.Run(l.network(ctx, g), g, Q, graph.BlockerDelta(g, Q), par)
	if err == nil && l.check {
		want := graph.BlockerDelta(g, Q)
		for ci := 0; ci < len(Q) && err == nil; ci++ {
			for x := 0; x < g.N; x++ {
				if got, exp := res.AtBlocker[ci][x], want.At(x, ci); got != exp && (got < graph.Inf || exp < graph.Inf) {
					err = fmt.Errorf("blocker %d holds %d for source %d, want %d", Q[ci], got, x, exp)
					break
				}
			}
		}
	}
	if l.skip(err, fmt.Sprintf("%s qsink %v", name, par.Scheduler)) {
		return nil
	}
	return &res.Stats
}

// every returns 0, step, 2*step, ... below n.
func every(n, step int) []int {
	var out []int
	for v := 0; v < n; v += step {
		out = append(out, v)
	}
	return out
}

// hopParam is det43's default hop parameter, ceil(n^(1/3)), computed as
// the pipeline computes it.
func hopParam(n int) int { return int(math.Ceil(math.Pow(float64(n), 1.0/3))) }

// stageRounds maps each executed pipeline stage of a cell to its rounds.
func stageRounds(r row) map[string]int {
	m := make(map[string]int, len(r.Stages))
	for _, st := range r.Stages {
		m[st.Name] = st.Rounds
	}
	return m
}

// fitExponent returns the least-squares slope of log(y) against log(x)
// (NaN when the x values are all equal).
func fitExponent(xs []int, ys []float64) float64 {
	var sx, sy, sxx, sxy float64
	for i := range xs {
		lx, ly := math.Log(float64(xs[i])), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	k := float64(len(xs))
	if d := k*sxx - sx*sx; d > 1e-12 {
		return (k*sxy - sx*sy) / d
	}
	return math.NaN()
}

// table1 is E1, the empirical Table 1 (full-APSP rounds of the four
// profiles), and E1b, the per-stage rounds of its det43 cells.
func (l *lemmaRun) table1() {
	l.printf("## E1 (Table 1): APSP round complexity by algorithm\n\n")
	l.printf("| scenario | det n^4/3 (paper) | det n^3/2 [2] | randomized [13,1] | broadcast Step 6 | |Q| (paper) |\n")
	l.printf("|--|--:|--:|--:|--:|--:|\n")
	algs := []apsp.Algorithm{apsp.Deterministic43, apsp.Deterministic32, apsp.Randomized43, apsp.BroadcastStep6}
	var ns []int
	series := make([][]float64, len(algs))
	var det []row
scenarios:
	for _, sc := range familyScenarios("random", l.sizes, l.seeds) {
		g, _ := build(sc)
		cell := l.warm(sc, g)
		rows := make([]row, len(algs))
		for i, alg := range algs {
			var ok bool
			if rows[i], ok = cell(alg, 0, 0); !ok {
				continue scenarios
			}
		}
		l.printf("| %s | %d | %d | %d | %d | %d |\n", sc.Name(),
			rows[0].Rounds, rows[1].Rounds, rows[2].Rounds, rows[3].Rounds, rows[0].BlockerSetSize)
		ns = append(ns, g.N())
		for i, r := range rows {
			series[i] = append(series[i], float64(r.Rounds))
		}
		det = append(det, rows[0])
	}
	l.printf("\nfitted growth exponents: det43=%.2f det32=%.2f rand43=%.2f bcast=%.2f (theory: 1.33 / 1.50 / 1.33 / 1.67, all x polylog)\n\n",
		fitExponent(ns, series[0]), fitExponent(ns, series[1]), fitExponent(ns, series[2]), fitExponent(ns, series[3]))

	l.printf("### E1b: per-step rounds of the deterministic n^4/3 algorithm\n\n")
	l.printf("| scenario | step1 CSSSP | step2 blocker | step3 inSSSP | step4 bcast | step6 qsink | step7 extend |\n")
	l.printf("|--|--:|--:|--:|--:|--:|--:|\n")
	var s1, s7 []float64
	for _, r := range det {
		st := stageRounds(r)
		l.printf("| %s | %d | %d | %d | %d | %d | %d |\n", r.Scenario,
			st["step1-csssp"], st["step2-blocker"], st["step3-insssp"], st["step4-bcast"], st["step6-qsink"], st["step7-extend"])
		s1 = append(s1, float64(st["step1-csssp"]))
		s7 = append(s7, float64(st["step7-extend"]))
	}
	l.printf("\nfitted exponents: step1=%.2f step7=%.2f (theory: both n*h = n^1.33 exactly)\n", fitExponent(ns, s1), fitExponent(ns, s7))
}

// blockerSize is E2, Lemma 3.10: |Q| = O(n log n / h) for every
// construction.
func (l *lemmaRun) blockerSize() {
	l.printf("## E2 (Lemma 3.10): blocker set size vs n ln(n)/h\n\n")
	l.printf("| scenario | h | n*ln(n)/h | det (Alg 2') | randomized (Alg 2) | greedy [2] | sampled [13] |\n")
	l.printf("|--|--:|--:|--:|--:|--:|--:|\n")
	modes := []blocker.Mode{blocker.Deterministic, blocker.Randomized, blocker.Greedy, blocker.RandomSample}
scenarios:
	for _, sc := range familyScenarios("random", l.sizes, l.seeds) {
		_, g := build(sc)
		h := hopParam(g.N)
		size := make([]int, len(modes))
		for i, mode := range modes {
			res := l.blockerCell(sc.Name(), g, h, blocker.Params{Mode: mode, Seed: sc.Seed})
			if res == nil {
				continue scenarios
			}
			size[i] = len(res.Q)
		}
		l.printf("| %s | %d | %.1f | %d | %d | %d | %d |\n", sc.Name(), h,
			float64(g.N)*math.Log(float64(g.N))/float64(h), size[0], size[1], size[2], size[3])
	}
}

// selectionSteps is E3, Lemma 3.9: the selection loop runs
// O(log^3 n / (delta^3 eps^2)) times.
func (l *lemmaRun) selectionSteps() {
	l.printf("## E3 (Lemma 3.9): selection steps of the deterministic construction\n\n")
	l.printf("| scenario | selection steps | single-node | good-set | fallback | log2(n)^3 |\n")
	l.printf("|--|--:|--:|--:|--:|--:|\n")
	for _, sc := range familyScenarios("random", l.sizes, l.seeds) {
		_, g := build(sc)
		res := l.blockerCell(sc.Name(), g, hopParam(g.N), blocker.Params{})
		if res == nil {
			continue
		}
		st := res.Stats
		lg := math.Log2(float64(g.N))
		l.printf("| %s | %d | %d | %d | %d | %.0f |\n", sc.Name(),
			st.SelectionSteps, st.SingleSelections, st.GoodSetSelections, st.FallbackSteps, lg*lg*lg)
	}
}

// blockerRounds is E4, Corollary 3.13, against the n*|Q| term of the
// greedy baseline.
func (l *lemmaRun) blockerRounds() {
	l.printf("## E4 (Corollary 3.13): blocker construction rounds, set cover vs greedy\n\n")
	l.printf("| scenario | h | det rounds | greedy rounds | greedy n*|Q| term | det/nh |\n")
	l.printf("|--|--:|--:|--:|--:|--:|\n")
	var ns []int
	var detR, greR []float64
	for _, sc := range familyScenarios("random", l.sizes, l.seeds) {
		_, g := build(sc)
		h := hopParam(g.N)
		det := l.blockerCell(sc.Name(), g, h, blocker.Params{})
		if det == nil {
			continue
		}
		gre := l.blockerCell(sc.Name(), g, h, blocker.Params{Mode: blocker.Greedy})
		if gre == nil {
			continue
		}
		l.printf("| %s | %d | %d | %d | %d | %.1f |\n", sc.Name(), h, det.Stats.Rounds, gre.Stats.Rounds,
			g.N*len(gre.Q), float64(det.Stats.Rounds)/float64(g.N*h))
		ns = append(ns, g.N)
		detR = append(detR, float64(det.Stats.Rounds))
		greR = append(greR, float64(gre.Stats.Rounds))
	}
	l.printf("\nfitted exponents: det=%.2f greedy=%.2f (theory: |S|h = n^1.33 x polylog vs nh + n|Q| -> n^1.67-ish as |Q| grows)\n",
		fitExponent(ns, detR), fitExponent(ns, greR))
}

// qsinkRounds is E5, Lemmas 4.1 and 4.5: Step 6 alone, pipelined against
// the broadcast, delivering to the deterministic blocker set.
func (l *lemmaRun) qsinkRounds() {
	l.printf("## E5 (Lemmas 4.1, 4.5): reversed q-sink delivery rounds\n\n")
	l.printf("| scenario | |Q| | roundrobin | frames | broadcast n*|Q| | pipeline msgs |\n")
	l.printf("|--|--:|--:|--:|--:|--:|\n")
	schedulers := []qsink.Scheduler{qsink.RoundRobin, qsink.Frames, qsink.BroadcastAll}
scenarios:
	for _, sc := range familyScenarios("random", l.sizes, l.seeds) {
		_, g := build(sc)
		b := l.blockerCell(sc.Name(), g, hopParam(g.N), blocker.Params{})
		if b == nil || len(b.Q) == 0 {
			continue
		}
		st := make([]*qsink.Stats, len(schedulers))
		for i, sch := range schedulers {
			if st[i] = l.qsinkCell(sc.Name(), g, b.Q, qsink.Params{Scheduler: sch}); st[i] == nil {
				continue scenarios
			}
		}
		l.printf("| %s | %d | %d | %d | %d | %d |\n", sc.Name(), len(b.Q),
			st[0].RoundsTotal, st[1].RoundsTotal, st[2].RoundsTotal, st[0].PipelineMessages)
	}
}

// bottleneck is E6, Lemmas A.15-A.17: bottleneck count and load
// reduction, in the lemma regime (mult=1: |B| <= sqrt(|Q|), load after <=
// the bound) and a stress regime (mult=0.05). Under -check a lemma-regime
// violation is fatal.
func (l *lemmaRun) bottleneck() {
	l.printf("## E6 (Lemmas A.15-A.17): bottleneck elimination\n\n")
	l.printf("| scenario | mult | |Q| | bound | |B| | sqrt(q) cap (mult=1) | load before | load after |\n")
	l.printf("|--|--:|--:|--:|--:|--:|--:|--:|\n")
	for _, fam := range []string{"star", "grid"} {
		for _, sc := range familyScenarios(fam, l.sizes, l.seeds) {
			_, g := build(sc)
			Q := every(g.N, 4)
			for _, mult := range []float64{1, 0.05} {
				st := l.qsinkCell(sc.Name(), g, Q, qsink.Params{Scheduler: qsink.RoundRobin, CongestionMult: mult})
				if st == nil {
					continue
				}
				limit := "-"
				if mult == 1 {
					sq := math.Sqrt(float64(len(Q)))
					limit = fmt.Sprintf("%.1f", sq)
					if float64(st.BottleneckCount) > sq || st.MaxLoadAfter > st.CongestionBound {
						if l.check {
							log.Fatalf("%s: Lemmas A.15-A.16 violated: |B| = %d for |Q| = %d, load after %d > bound %d",
								sc.Name(), st.BottleneckCount, len(Q), st.MaxLoadAfter, st.CongestionBound)
						}
						limit += " VIOLATED"
					}
				}
				l.printf("| %s | %.2f | %d | %d | %d | %s | %d | %d |\n", sc.Name(), mult, len(Q),
					st.CongestionBound, st.BottleneckCount, limit, st.MaxLoadBefore, st.MaxLoadAfter)
			}
		}
	}
}

// goodset is E7, Lemma 3.8: the density of good sample points, on
// disjoint-paths workloads where Step 9's single-node rule fails.
func (l *lemmaRun) goodset() {
	l.printf("## E7 (Lemma 3.8): good sample points in the pairwise-independent space\n\n")
	l.printf("(disjoint-paths workloads: no vertex covers more than ~1/k of the paths,\n")
	l.printf("so Step 9's single-node rule fails and the good-set branch must run;\n")
	l.printf("delta=0.5, full-space exhaustive search)\n\n")
	l.printf("| k paths x h | n | good-set selections | fallbacks | good points | scanned | fraction | Lemma 3.8 floor |\n")
	l.printf("|--|--:|--:|--:|--:|--:|--:|--:|\n")
	for _, c := range []struct{ k, h int }{{12, 3}, {16, 3}, {20, 3}, {16, 4}} {
		g := graph.DisjointPaths(c.k, c.h, 1000, graph.GenConfig{Seed: int64(c.k*10 + c.h), MaxWeight: 4})
		res := l.blockerCell(fmt.Sprintf("disjoint-%dx%d", c.k, c.h), g, c.h,
			blocker.Params{Mode: blocker.Deterministic, Delta: 0.5, UseFullSpace: true})
		if res == nil {
			continue
		}
		st := res.Stats
		frac := 0.0
		if st.PointsScanned > 0 {
			frac = float64(st.GoodPoints) / float64(st.PointsScanned)
		}
		l.printf("| %dx%d | %d | %d | %d | %d | %d | %.3f | 0.125 |\n",
			c.k, c.h, g.N, st.GoodSetSelections, st.FallbackSteps, st.GoodPoints, st.PointsScanned, frac)
	}
}

// frames is E8, Lemma 4.8: per-stage shrinkage of max |Q_{v,i}|. At the
// paper's quota the stage-0 budget covers all traffic at these sizes, so a
// scaled-down quota (x0.02) shows the multi-stage shrinkage.
func (l *lemmaRun) frames() {
	l.printf("## E8 (Lemma 4.8): frame-stage shrinkage of max |Q_v,i|\n\n")
	l.printf("| scenario | |Q| | quota | stages | max|Qvi| per stage | pipeline rounds |\n")
	l.printf("|--|--:|--:|--:|--|--:|\n")
	for _, sc := range familyScenarios("random", l.sizes, l.seeds) {
		_, g := build(sc)
		Q := every(g.N, 3)
		for _, scale := range []float64{1, 0.02} {
			st := l.qsinkCell(sc.Name(), g, Q, qsink.Params{Scheduler: qsink.Frames, FrameQuotaScale: scale})
			if st == nil {
				continue
			}
			parts := make([]string, len(st.FrameQviMax))
			for i, m := range st.FrameQviMax {
				parts[i] = strconv.Itoa(m)
			}
			l.printf("| %s | %d | x%.2f | %d | %s | %d |\n", sc.Name(), len(Q), scale, st.FrameStages,
				strings.Join(parts, " -> "), st.PipelineRounds)
		}
	}
}

// hSweep is E10, the hop-parameter ablation at the largest size. Theorem
// 1.1 balances the O~(n*h) cost of Steps 1, 2 and 7 against the
// O~(n*sqrt(n log n / h)) cost of Step 6 at h = n^(1/3).
func (l *lemmaRun) hSweep() {
	n := slices.Max(l.sizes)
	l.printf("## E10 (Theorem 1.1 ablation): total rounds vs hop parameter h\n\n")
	l.printf("(n = %d; theory balance point h = n^(1/3) = %.1f)\n\n", n, math.Pow(float64(n), 1.0/3))
	l.printf("| scenario | h | rounds | |Q| | step1 | step2 blocker | step6 qsink | step7 |\n")
	l.printf("|--|--:|--:|--:|--:|--:|--:|--:|\n")
	for _, sc := range familyScenarios("random", []int{n}, l.seeds) {
		g, _ := build(sc)
		cell := l.warm(sc, g)
		for h := 2; h <= int(math.Ceil(math.Sqrt(float64(g.N()))))+2; h += 2 {
			r, ok := cell(apsp.Deterministic43, h, 0)
			if !ok {
				continue
			}
			st := stageRounds(r)
			l.printf("| %s | %d | %d | %d | %d | %d | %d | %d |\n", sc.Name(), h, r.Rounds, r.BlockerSetSize,
				st["step1-csssp"], st["step2-blocker"], st["step6-qsink"], st["step7-extend"])
		}
	}
}

// bandwidthSweep is E11: rounds against the per-link bandwidth at the
// largest size, separating the bandwidth-bound steps (broadcasts,
// pipelines) from the latency-bound ones (Bellman-Ford waves).
func (l *lemmaRun) bandwidthSweep() {
	n := slices.Max(l.sizes)
	l.printf("## E11 (model ablation): rounds vs per-link bandwidth\n\n")
	l.printf("(n = %d, deterministic n^4/3 profile)\n\n", n)
	l.printf("| scenario | bandwidth | rounds | step2 blocker | step6 qsink | step1+7 BF |\n")
	l.printf("|--|--:|--:|--:|--:|--:|\n")
	for _, sc := range familyScenarios("random", []int{n}, l.seeds) {
		g, _ := build(sc)
		cell := l.warm(sc, g)
		for _, bw := range []int{1, 2, 4, 8} {
			r, ok := cell(apsp.Deterministic43, 0, bw)
			if !ok {
				continue
			}
			st := stageRounds(r)
			l.printf("| %s | %d | %d | %d | %d | %d |\n", sc.Name(), bw, r.Rounds,
				st["step2-blocker"], st["step6-qsink"], st["step1-csssp"]+st["step7-extend"])
		}
	}
}

// unweightedRounds is E12: the O(n) pipelined-BFS regime of Table 1's
// context (the Omega(n) lower bound holds even unweighted), checked under
// -check against the oracle on unit weights.
func (l *lemmaRun) unweightedRounds() {
	l.printf("## E12 (context): unweighted APSP in O(n) rounds (pipelined BFS)\n\n")
	l.printf("| scenario | rounds | rounds/n | weighted det43 rounds |\n")
	l.printf("|--|--:|--:|--:|\n")
	for _, sc := range familyScenarios("random", l.sizes, l.seeds) {
		g, og := build(sc)
		ctx, cancel := l.cellCtx()
		res, err := unweighted.Run(l.network(ctx, og), og)
		cancel()
		if err == nil && l.check {
			unit := graph.New(og.N, og.Directed)
			for _, e := range og.Edges() {
				unit.MustAddEdge(e.U, e.V, 1)
			}
			err = oracleFor(unit, l.samples, sc.Seed)(res.Dist)
		}
		if l.skip(err, sc.Name()+" unweighted") {
			continue
		}
		det, ok := l.warm(sc, g)(apsp.Deterministic43, 0, 0)
		if !ok {
			continue
		}
		l.printf("| %s | %d | %.1f | %d |\n", sc.Name(), res.Rounds, float64(res.Rounds)/float64(og.N), det.Rounds)
	}
}
