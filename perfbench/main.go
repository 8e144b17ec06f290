// Command perfbench is the repository benchmark. It runs one workload per
// process against the public apsp library and the apspd daemon, checks
// every answer, and prints one JSON result line:
//
//	perfbench -workload solve-ring256 -seed 1 -seconds 30 -trace 0 -apspd ./apspd
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics, and the spans go to -trace-dir. README.md
// describes the workloads and every metric; run.sh builds and runs it from
// the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"congestapsp/pkg/apsp"
)

// setupReps is how many times each run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// workloads maps each workload name to its body. The solve scenarios take
// the workload seed. The served graph is random-n128-s1 for every seed, and
// the seed drives the write/read sequence: across scenario seeds |Q| ranges
// 12-21 and the re-run cost moves with it, which put the ten-seed spread of
// serve-rw128's median at 0.19 of the median, against 0.08-0.14 with the
// graph fixed (both measured when the workload's writes piled up).
var workloads = map[string]func(*bench) error{
	"solve-ring256": func(b *bench) error { return b.solve(apsp.Scenario{Family: "ring", N: 256, Seed: b.seed}) },
	"solve-star512": func(b *bench) error { return b.solve(apsp.Scenario{Family: "star", N: 512, Seed: b.seed}) },
	"serve-rw128":   func(b *bench) error { return b.serve(apsp.Scenario{Family: "random", N: 128, Seed: 1}) },
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"solve_ms_p50", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// stageNames are the pipeline stages, in order, as Stats.Stages names them.
var stageNames = []string{
	"step1-csssp", "step2-blocker", "step3-insssp", "step4-bcast",
	"step5-closure", "step6-qsink", "step7-extend", "step8-lastedge",
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reads 0 with sample count 0 in the run record.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"graph.build_ms", "ms"}, {"core.new_runner_ms", "ms"}, {"core.first_run_ms", "ms"},
		{"serve.boot_ms", "ms"}, {"serve.load_ms", "ms"}, {"serve.first_read_ms", "ms"},
	}
	for _, s := range stageNames {
		defs = append(defs, metricDef{"core." + s + ".wall_ms", "ms"})
	}
	return append(defs,
		metricDef{"core.unattributed_ms", "ms"},
		metricDef{"core.rounds", "count"}, metricDef{"core.messages", "count"}, metricDef{"core.words", "count"},
		metricDef{"core.allocs", "count"}, metricDef{"core.alloc_mb", "MB"},
		metricDef{"congest.simulated_rounds", "count"}, metricDef{"congest.idle_round_ratio", "ratio"},
		metricDef{"congest.delivered_per_charged_msg", "ratio"},
		metricDef{"csssp.wall_ms", "ms"}, metricDef{"csssp.messages", "count"}, metricDef{"csssp.ns_per_msg", "ns"},
		metricDef{"blocker.wall_ms", "ms"}, metricDef{"blocker.messages", "count"}, metricDef{"blocker.ns_per_msg", "ns"},
		metricDef{"blocker.selection_steps", "count"}, metricDef{"blocker.good_point_ratio", "ratio"},
		metricDef{"bford.wall_ms", "ms"}, metricDef{"bford.messages", "count"}, metricDef{"bford.ns_per_msg", "ns"},
		metricDef{"qsink.wall_ms", "ms"}, metricDef{"qsink.messages", "count"}, metricDef{"qsink.ns_per_msg", "ns"},
		metricDef{"qsink.pipeline_rounds", "count"},
		metricDef{"serve.cache_hit_ratio", "ratio"}, metricDef{"serve.runs", "count"},
		metricDef{"core.update_fallback_ratio", "ratio"}, metricDef{"core.update_reuse_ratio", "ratio"},
		metricDef{"core.apply_updates_ms_p50", "ms"}, metricDef{"core.rerun_ms_p50", "ms"},
		metricDef{"serve.fresh_overhead_ms", "ms"}, metricDef{"serve.write_overhead_ms", "ms"},
		metricDef{"serve.read_hit_ms_p50", "ms"}, metricDef{"serve.read_hit_ms_p99", "ms"},
		metricDef{"serve.read_fresh_ms_p50", "ms"}, metricDef{"serve.read_fresh_ms_p90", "ms"},
		metricDef{"serve.write_ms_p50", "ms"}, metricDef{"serve.write_ms_p90", "ms"},
		metricDef{"trace.overhead_ms", "ms"},
	)
}()

// bench is the state of one run.
type bench struct {
	seed    int64
	seconds time.Duration
	traced  bool
	apspd   string // path of the apspd binary

	rec *runRecord
	tr  *tracer // nil when untraced

	attempted, failed int
	values            map[string]float64
	samples           map[string][]float64 // per-layer samples, folded by median
}

// op counts one attempted operation and, when err is non-nil, one failed
// one.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if b.failed <= 10 {
			fmt.Fprintf(os.Stderr, "perfbench: failed operation: %v\n", err)
		}
	}
}

// put records a metric value and the number of samples behind it.
func (b *bench) put(name string, v float64, n int) {
	b.values[name] = v
	b.rec.Samples[name] = n
}

// sample adds one observation of a per-layer metric; foldSamples later
// reports the median.
func (b *bench) sample(name string, v float64) {
	b.samples[name] = append(b.samples[name], v)
}

func (b *bench) foldSamples() {
	for name, xs := range b.samples {
		b.put(name, median(xs), len(xs))
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "workload seed (1 = default, 2 = hold-out)")
		seconds  = flag.Float64("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		apspd    = flag.String("apspd", "", "apspd binary (serve workloads)")
		traceDir = flag.String("trace-dir", "", "directory for span files of traced runs")
		driftRun = flag.Bool("drift", false, "time the host-drift loops, print them, and exit")
	)
	flag.Parse()
	if *driftRun {
		data, _ := json.Marshal(driftLoops()) // two finite floats always encode
		fmt.Println(string(data))
		return 0
	}
	body, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		apspd:   *apspd,
		rec:     newRunRecord(*workload, *seed, *trace == 1),
		values:  make(map[string]float64),
		samples: make(map[string][]float64),
	}
	if b.traced {
		b.tr = newTracer()
	}
	var err error
	if b.rec.DriftPre, err = measureDrift(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := body(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if b.rec.DriftPost, err = measureDrift(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	b.foldSamples()

	defs := endToEnd
	if b.traced {
		defs = perLayer
		self := b.tr.selfMS()
		b.rec.SelfMS = self
		if *traceDir != "" {
			path := filepath.Join(*traceDir, fmt.Sprintf("%s-s%d.json", *workload, *seed))
			if err := b.tr.write(path); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
				return 1
			}
		}
		printSelf(self)
	}
	out := resultOut{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		if _, ok := b.values[d.name]; !ok {
			b.rec.Samples[d.name] = 0
		}
		out.Metrics[d.name] = metricOut{Value: b.values[d.name], Unit: d.unit}
	}
	rec, err := json.Marshal(b.rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run record: %v\n", err)
		return 1
	}
	res, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: result: %v\n", err)
		return 1
	}
	fmt.Printf("run-record %s\n%s\n", rec, res)
	return 0
}

// printSelf prints the traced self time per span name and per layer.
func printSelf(self map[string]float64) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("self-ms %-28s %12.3f\n", n, self[n])
	}
	layers := layerSelfMS(self)
	names = names[:0]
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("layer-self-ms %-22s %12.3f\n", n, layers[n])
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
