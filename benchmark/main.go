// Command benchmark is the repository's one benchmark: four workloads
// through the real stack, end-to-end metrics measured untraced, per-layer
// metrics measured from outside in a separate traced pass, and an output
// oracle run in both. See README.md next to this file.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one pass of one workload; last stdout line is the result
//	benchmark suite -out DIR [-seed N] [-seconds S]           every workload, both passes; results.json + trace.json
//	benchmark compare A B                                     verdict per workload x end-to-end metric
//	benchmark calibrate [-n 5]                                run-to-run spread per metric, calibration rule applied
//	benchmark manifest                                        print BENCHMARK.json from the metric and workload tables
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// logw carries progress and diagnostics; standard output is kept for
// results.
var logw io.Writer = os.Stderr

const (
	// defaultSeconds is run_seconds in BENCHMARK.json.
	defaultSeconds = 24
	tracedSeconds  = 10
	// A run's window is split over this many freshly built rigs; setup_s is
	// the median of their build times.
	setupBuilds = 3
)

func main() {
	// In-process members share cores with the load generator; more than four
	// would only add scheduler noise on the reference box.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "suite":
		err = cmdSuite(ctx, os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = cmdCompare(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "calibrate":
		err = cmdCalibrate(ctx, os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "manifest":
		_, err = os.Stdout.Write(manifest())
	default:
		err = cmdRun(ctx, os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// scratchRoot is where runs put their WAL directories unless -tmp says
// otherwise; run.sh points it inside the checkout's build directory.
func scratchRoot() string {
	if d := os.Getenv("BENCH_TMP"); d != "" {
		return d
	}
	return ".bench_tmp"
}

// scratch makes the run's scratch directory under root and returns it with
// its cleanup.
func scratch(root string) (string, func(), error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return "", nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", nil, err
	}
	return abs, func() { _ = os.RemoveAll(abs) }, nil
}

// contractResult is the one-line result the driver reads.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// cmdRun is one pass of one workload. With --trace 0 it prints every
// end-to-end metric, with --trace 1 every per-layer metric.
func cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: gw-paced, write-burst, read-mix, failover")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "measured window, seconds")
	trace := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	out := fs.String("out", "", "directory to write trace.json into (traced pass only; nothing is written without it)")
	tmp := fs.String("tmp", scratchRoot(), "scratch root for WAL directories (default $BENCH_TMP, else .bench_tmp)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, ok := findWorkload(*workload); !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	dir, cleanup, err := scratch(*tmp)
	if err != nil {
		return err
	}
	defer cleanup()
	o, err := runOne(ctx, params{
		workload: *workload, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		traced: *trace != 0, setups: setupBuilds, probes: *trace != 0, tmp: dir,
	})
	if err != nil {
		return err
	}
	for _, v := range o.violations {
		fmt.Fprintln(logw, "oracle:", v)
	}
	res := contractResult{Correct: o.correct, Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: map[string]contractMetric{}}
	if o.params.traced {
		printRows(logw, rowsOf(o, false))
		for _, d := range layerMetrics {
			res.Metrics[d.name] = contractMetric{o.layer[d.name].value, d.unit}
		}
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				return err
			}
			if err := writeTraces(filepath.Join(*out, "trace.json"), map[string]*tracer{*workload: o.tracer}); err != nil {
				return err
			}
		}
	} else {
		printRows(logw, rowsOf(o, true))
		for _, d := range e2eMetrics {
			res.Metrics[d.name] = contractMetric{o.e2e[d.name].value, d.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runSuite runs every workload untraced and, when tracedWindow > 0, again
// traced, and returns the result set and the traced passes' tracers.
func runSuite(ctx context.Context, seed int64, window, tracedWindow time.Duration, tmp string) (*resultSet, map[string]*tracer, error) {
	rs := newResultSet(seed, window, tracedWindow)
	tracers := make(map[string]*tracer)
	for i, w := range workloads {
		fmt.Fprintf(logw, "== %s: untraced, %v\n", w.name, window)
		untraced, err := runOne(ctx, params{workload: w.name, seed: seed, window: window, setups: setupBuilds, tmp: tmp})
		if err != nil {
			return nil, nil, err
		}
		passes := []*outcome{untraced}
		rows := rowsOf(untraced, true)
		if tracedWindow > 0 {
			fmt.Fprintf(logw, "== %s: traced, %v\n", w.name, tracedWindow)
			// The micro-probes do not depend on the workload: once is enough.
			traced, err := runOne(ctx, params{workload: w.name, seed: seed, window: tracedWindow, traced: true, setups: 1, probes: i == 0, tmp: tmp})
			if err != nil {
				return nil, nil, err
			}
			passes = append(passes, traced)
			rows = mergeRows(untraced, traced)
			rows = append(rows, overheadRows(untraced, traced)...)
			tracers[w.name] = traced.tracer
		}
		for _, o := range passes {
			for _, v := range o.violations {
				fmt.Fprintf(logw, "oracle (%s): %s\n", w.name, v)
			}
			rs.Correct = rs.Correct && o.correct
		}
		rs.Rows = append(rs.Rows, rows...)
	}
	return rs, tracers, nil
}

// overheadRows is proc.trace_overhead_pct: how much the traced pass's
// write latency and throughput differ from the untraced pass's.
func overheadRows(untraced, traced *outcome) []row {
	var rows []row
	for _, name := range []string{"write_p50_ms", "ops_per_s"} {
		u, t := untraced.e2e[name], traced.e2e[name]
		if u.value == 0 {
			continue
		}
		rows = append(rows, row{untraced.params.workload, "proc.trace_overhead_pct." + name, "proc", 100 * (t.value - u.value) / u.value, "%", "lower", t.n})
	}
	return rows
}

func cmdSuite(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("suite", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", defaultSeconds, "measured window of the untraced pass, seconds")
	traced := fs.Float64("trace-seconds", tracedSeconds, "measured window of the traced pass, seconds (0 skips it)")
	out := fs.String("out", "", "directory for results.json and trace.json (required)")
	tmp := fs.String("tmp", scratchRoot(), "scratch root for WAL directories (default $BENCH_TMP, else .bench_tmp)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("suite: -out DIR is required")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	dir, cleanup, err := scratch(*tmp)
	if err != nil {
		return err
	}
	defer cleanup()
	rs, tracers, err := runSuite(ctx, *seed, time.Duration(*seconds*float64(time.Second)), time.Duration(*traced*float64(time.Second)), dir)
	if err != nil {
		return err
	}
	printRows(os.Stdout, rs.Rows)
	if err := rs.write(filepath.Join(*out, "results.json")); err != nil {
		return err
	}
	if len(tracers) > 0 {
		if err := writeTraces(filepath.Join(*out, "trace.json"), tracers); err != nil {
			return err
		}
	}
	if !rs.Correct {
		return fmt.Errorf("the output oracle was violated; the run is invalid")
	}
	return nil
}

func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: benchmark compare BASE NEW (each a results.json or a directory of them)")
	}
	base, err := loadSets(args[0])
	if err != nil {
		return err
	}
	cand, err := loadSets(args[1])
	if err != nil {
		return err
	}
	if compare(os.Stdout, base, cand) {
		return fmt.Errorf("compare: regression")
	}
	return nil
}

func cmdCalibrate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	n := fs.Int("n", 5, "how many times to run the untraced suite")
	seed := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := fs.Float64("seconds", defaultSeconds, "measured window, seconds")
	out := fs.String("out", "", "directory to keep each run's results-<i>.json in (optional)")
	tmp := fs.String("tmp", scratchRoot(), "scratch root for WAL directories (default $BENCH_TMP, else .bench_tmp)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dir, cleanup, err := scratch(*tmp)
	if err != nil {
		return err
	}
	defer cleanup()
	var sets []*resultSet
	for i := 0; i < *n; i++ {
		fmt.Fprintf(logw, "== calibration run %d of %d\n", i+1, *n)
		rs, _, err := runSuite(ctx, *seed+int64(i), time.Duration(*seconds*float64(time.Second)), 0, dir)
		if err != nil {
			return err
		}
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				return err
			}
			if err := rs.write(filepath.Join(*out, fmt.Sprintf("results-%d.json", i))); err != nil {
				return err
			}
		}
		sets = append(sets, rs)
	}
	calibrate(os.Stdout, sets)
	return nil
}

// commitID names the commit under test: BENCH_COMMIT if set, else git's
// HEAD, else "unknown" (the driver's checkout is not a git repository).
func commitID() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// manifest renders BENCHMARK.json from the workload and metric tables, so
// the file the driver reads cannot drift from what the program prints
// (TestManifestMatchesFile compares the two).
func manifest() []byte {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eEntry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerEntry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []e2eEntry      `json:"end_to_end"`
		PerLayer   []layerEntry    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadEntry{w.name, w.why})
	}
	for _, d := range e2eMetrics {
		doc.EndToEnd = append(doc.EndToEnd, e2eEntry{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range layerMetrics {
		doc.PerLayer = append(doc.PerLayer, layerEntry{d.name, d.unit, d.better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the document is built from static tables
	}
	return append(data, '\n')
}
