package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// resultSet is results.json: one per suite run, the shape ROADMAP item 1
// asks every BENCH file to share — where it ran, on which rig, then flat
// rows.
type resultSet struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GoMaxProcs int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Rig        rigDesc `json:"rig"`
	Correct    bool    `json:"correct"`
	Rows       []row   `json:"rows"`
}

type rigDesc struct {
	Members       int     `json:"members"`
	Shards        int     `json:"shards"`
	TokenHoldMS   float64 `json:"token_hold_ms"`
	MaxBatch      int     `json:"max_batch"`
	AckTimeoutMS  float64 `json:"ack_timeout_ms"`
	Network       string  `json:"network"`
	WAL           string  `json:"wal"`
	SnapshotEvery int     `json:"snapshot_every_bytes"`
	ValueBytes    int     `json:"value_bytes"`
	OpDeadlineMS  float64 `json:"op_deadline_ms"`
	WindowS       float64 `json:"window_s"`
	TracedWindowS float64 `json:"traced_window_s"`
}

// row is one metric of one workload. Layer is "e2e" for the end-to-end
// metrics and the module name for the per-layer ones.
type row struct {
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	Layer    string  `json:"layer"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	N        int     `json:"n"`
}

func describeRig(window, traced time.Duration) rigDesc {
	return rigDesc{
		Members: rigMembers, Shards: rigShards,
		TokenHoldMS: ms(int64(rigTokenHold)), MaxBatch: rigMaxBatch, AckTimeoutMS: ms(int64(rigAckTimeout)),
		Network:       fmt.Sprintf("simnet %v one-way, no jitter or loss, seeded; write-burst over UDP loopback", rigLatency),
		WAL:           "file, fsync_mode=batch",
		SnapshotEvery: rigSnapEvery, ValueBytes: valueBytes, OpDeadlineMS: ms(int64(opDeadline)),
		WindowS: window.Seconds(), TracedWindowS: traced.Seconds(),
	}
}

// rowsOf flattens one outcome. Per-layer rows a workload did not produce
// are left out of results.json (the one-line contract output reports them
// as 0).
func rowsOf(o *outcome, withE2E bool) []row {
	var rows []row
	if withE2E {
		for _, d := range e2eMetrics {
			m := o.e2e[d.name]
			rows = append(rows, row{o.params.workload, d.name, "e2e", m.value, d.unit, d.better, m.n})
		}
	}
	for _, d := range layerMetrics {
		if m, ok := o.layer[d.name]; ok {
			rows = append(rows, row{o.params.workload, d.name, layerOf(d.name), m.value, d.unit, d.better, m.n})
		}
	}
	return rows
}

// mergeRows joins the two passes of one workload: end-to-end rows and the
// client-side latencies from the untraced pass, everything only the
// decorators can see from the traced pass.
func mergeRows(untraced, traced *outcome) []row {
	rows := rowsOf(untraced, true)
	have := make(map[string]bool)
	for _, r := range rows {
		have[r.Name] = true
	}
	for _, r := range rowsOf(traced, false) {
		if !have[r.Name] {
			rows = append(rows, r)
		}
	}
	return rows
}

func newResultSet(seed int64, window, traced time.Duration) *resultSet {
	return &resultSet{
		Commit: commitID(), GoVersion: runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Seed: seed, Rig: describeRig(window, traced), Correct: true,
	}
}

func (rs *resultSet) write(path string) error {
	data, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printRows lists every metric by name with its unit.
func printRows(w io.Writer, rows []row) {
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-8s %-36s %14.4f %-6s (better: %s, n=%d)\n", r.Workload, r.Layer, r.Name, r.Value, r.Unit, r.Better, r.N)
	}
}

// --- compare ---

// loadSets reads one results.json, or every *.json of a directory.
func loadSets(path string) ([]*resultSet, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var sets []*resultSet
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rs resultSet
		if err := json.Unmarshal(data, &rs); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if len(rs.Rows) > 0 {
			sets = append(sets, &rs)
		}
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("%s holds no result set", path)
	}
	return sets, nil
}

// series collects one metric's values over the runs of a side.
func series(sets []*resultSet, workload, name string) []float64 {
	var v []float64
	for _, rs := range sets {
		for _, r := range rs.Rows {
			if r.Workload == workload && r.Name == name {
				v = append(v, r.Value)
			}
		}
	}
	return v
}

// spread is the run-to-run spread of a side as a share of its median: the
// interquartile distance from four runs up, the full range below that.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	med := medianFloat(s)
	if med == 0 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / med
	}
	q1, q3 := quartiles(s)
	return (q3 - q1) / med
}

// quartiles are the first and third quartile of an ascending slice, by the
// exclusive method Python's statistics.quantiles(n=4) uses.
func quartiles(s []float64) (q1, q3 float64) {
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.75)
}

// verdict compares one metric's medians under its bound. worsening is how
// much worse the new median is, as a share of the base median. With a single
// run on a side its spread is unknown, and no gain is called.
func verdict(d metricDef, base, cand []float64) (worsening float64, v string) {
	b, c := medianFloat(base), medianFloat(cand)
	if b == 0 {
		return 0, "unresolved"
	}
	worsening = (c - b) / b
	if d.better == "higher" {
		worsening = -worsening
	}
	switch {
	case spread(base) > d.bound || spread(cand) > d.bound:
		return worsening, "unresolved"
	case worsening > d.bound:
		return worsening, "worse"
	case len(base) > 1 && len(cand) > 1 && -worsening > spread(base) && -worsening > spread(cand):
		return worsening, "better"
	}
	return worsening, "same"
}

// compare prints one row per workload x end-to-end metric and reports
// whether any is worse or any workload's fail_share rose.
func compare(w io.Writer, base, cand []*resultSet) (regressed bool) {
	fmt.Fprintf(w, "%-12s %-16s %12s %12s %18s %6s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range e2eMetrics {
			b, c := series(base, wl.name, d.name), series(cand, wl.name, d.name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			_, v := verdict(d, b, c)
			bm, cm := medianFloat(b), medianFloat(c)
			fmt.Fprintf(w, "%-12s %-16s %12.4f %12.4f %8.3f of %-8.4g %5.0f%%  %s (spread %.1f%% / %.1f%%, n=%d/%d)\n",
				wl.name, d.name, bm, cm, ratio(cm, bm), bm, 100*d.bound, v, 100*spread(b), 100*spread(c), len(b), len(c))
			if v == "worse" {
				regressed = true
			}
		}
		b, c := series(base, wl.name, "proc.fail_share"), series(cand, wl.name, "proc.fail_share")
		if bm, cm := medianFloat(b), medianFloat(c); cm > bm {
			fmt.Fprintf(w, "%-12s %-16s %12.6f %12.6f  fail_share rose\n", wl.name, "proc.fail_share", bm, cm)
			regressed = true
		}
	}
	for _, rs := range append(append([]*resultSet(nil), base...), cand...) {
		if !rs.Correct {
			fmt.Fprintf(w, "a result set of commit %s is marked incorrect: its oracle was violated\n", rs.Commit)
			regressed = true
		}
	}
	return regressed
}

// --- calibrate ---

// calibrationLimit is the calibration rule: an end-to-end metric other
// than setup_s whose (max-min)/median over the runs exceeds a tenth is a
// candidate for demotion to the per-layer list.
const calibrationLimit = 0.10

// calibrate prints each workload x metric spread over the given runs and
// which ones the calibration rule flags.
func calibrate(w io.Writer, sets []*resultSet) {
	fmt.Fprintf(w, "%-12s %-16s %12s %10s %10s %6s  %s\n", "workload", "metric", "median", "range/med", "iqr/med", "bound", "rule")
	for _, wl := range workloads {
		for _, d := range e2eMetrics {
			v := series(sets, wl.name, d.name)
			if len(v) == 0 {
				continue
			}
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			med := medianFloat(s)
			rng := ratio(s[len(s)-1]-s[0], med)
			q1, q3 := quartiles(s)
			var notes []string
			if d.name != "setup_s" && rng > calibrationLimit {
				notes = append(notes, "range over a tenth: demote or lengthen")
			}
			if d.name != "setup_s" && ratio(q3-q1, med) > d.bound/3 {
				notes = append(notes, "iqr over a third of the bound")
			}
			if len(notes) == 0 {
				notes = []string{"ok"}
			}
			fmt.Fprintf(w, "%-12s %-16s %12.4f %9.1f%% %9.1f%% %5.0f%%  %s\n",
				wl.name, d.name, med, 100*rng, 100*ratio(q3-q1, med), 100*d.bound, strings.Join(notes, "; "))
		}
	}
}
