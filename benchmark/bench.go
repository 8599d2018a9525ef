package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	raincore "repro"
	"repro/internal/gateway"
	"repro/internal/stats"
)

// params is one run: one workload, one pass.
type params struct {
	workload string
	seed     int64
	window   time.Duration // measured window
	traced   bool
	setups   int    // how many rigs the window is split over; each build is timed (median reported)
	probes   bool   // traced pass: also run the fixed micro-probes
	tiny     bool   // smoke tests: a sixteenth of every key table
	tmp      string // scratch root for WAL directories, inside the checkout
}

// keys scales a workload's key count down for the smoke tests.
func (p params) keys(n int) int {
	if p.tiny {
		return n / 16
	}
	return n
}

// warmup runs load on every freshly built rig before its measured window
// opens, so connections are up, the token has settled into rotation and
// lazily built state exists before timing.
const warmup = 500 * time.Millisecond

// metric is one reported number with its sample count.
type metric struct {
	value float64
	n     int
}

// outcome is what one run produced.
type outcome struct {
	params     params
	correct    bool
	violations []string
	attempted  int64
	failed     int64
	e2e        map[string]metric
	layer      map[string]metric
	tracer     *tracer
}

// env is the state a workload shares with the framework while it runs.
type env struct {
	p         params
	tr        *tracer
	orc       oracle
	late      lateness
	attempted atomic.Int64
	failed    atomic.Int64
	e2e       map[string]metric
	layer     map[string]metric
	setupTook []float64 // seconds per rig build
	tot       totals
}

func (e *env) setE2E(name string, v float64, n int)   { e.e2e[name] = metric{v, n} }
func (e *env) setLayer(name string, v float64, n int) { e.layer[name] = metric{v, n} }

// done counts one finished client operation, and says why the first few
// that failed did.
func (e *env) done(err error) {
	e.attempted.Add(1)
	if err != nil && e.failed.Add(1) <= keptViolations {
		fmt.Fprintf(logw, "%s: failed op: %v\n", e.p.workload, err)
	}
}

// handle is the facade handle a caller on member id works through: the
// bare *Cluster untraced, the timing decorator in the traced pass.
func (e *env) handle(g *rig, id raincore.NodeID) gateway.Backend {
	cl := g.cluster(id)
	if e.tr != nil {
		return &tracedCluster{cl: cl, origin: int(id), tr: e.tr}
	}
	return cl
}

// workloadFunc builds a workload's rig, runs it for p.window and fills the
// env's metrics.
type workloadFunc func(ctx context.Context, e *env) error

type workloadDef struct {
	name string
	why  string
	run  workloadFunc
}

var workloads = []workloadDef{
	{"gw-paced", "paced HTTP clients through the gateway: unloaded per-op latency, token wait dominates, coalescer bypassed", runGwPaced},
	{"write-burst", "32 closed-loop writers over UDP loopback: coalescer, multi-op frames, batch apply, WAL group records, sendmmsg do the work", runWriteBurst},
	{"read-mix", "one closed-loop reader per read mode beside a paced writer: view, fences, leases and session waits do the work, the token almost none", runReadMix},
	{"failover", "kill and restart a member under open-loop writes: 911/regeneration, membership, WAL replay and delta transfer do the work", runFailover},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runOne executes one workload pass and returns its outcome.
func runOne(ctx context.Context, p params) (*outcome, error) {
	w, ok := findWorkload(p.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", p.workload)
	}
	e := &env{p: p, e2e: make(map[string]metric), layer: make(map[string]metric)}
	e.tot.reg = make(map[string]int64)
	if p.traced {
		e.tr = newTracer(rigMembers)
	}
	goroutines := runtime.NumGoroutine()
	if err := w.run(ctx, e); err != nil {
		return nil, fmt.Errorf("%s: %w", p.workload, err)
	}
	if p.traced {
		e.layerFromTrace()
		// Goroutines the run left behind, once the product's own
		// teardown has had a moment to finish.
		time.Sleep(100 * time.Millisecond)
		e.setLayer("proc.goroutines_end", float64(runtime.NumGoroutine()-goroutines), 1)
		e.setLayer("proc.generator_late_ms_max", ms(int64(e.late.max)), 1)
		if p.probes {
			if err := e.microProbes(ctx); err != nil {
				return nil, err
			}
		}
	}
	e.setE2E("setup_s", medianFloat(e.setupTook), len(e.setupTook))
	attempted, failed := e.attempted.Load(), e.failed.Load()
	if attempted > 0 {
		e.setLayer("proc.fail_share", float64(failed)/float64(attempted), int(attempted))
	}
	return &outcome{
		params: p, correct: e.orc.ok(), violations: e.orc.violations,
		attempted: attempted, failed: failed,
		e2e: e.e2e, layer: e.layer, tracer: e.tr,
	}, nil
}

// --- segments ---

// closer is a built rig (plus whatever a workload starts on top of it).
type closer interface{ close() }

// timedBuild builds a workload's rig once in a fresh scratch directory and
// records how long that took. setup_s is the median over every build of
// the run.
func timedBuild[T closer](e *env, build func(dir string) (T, error)) (T, error) {
	var none T
	dir, err := os.MkdirTemp(e.p.tmp, "rig-")
	if err != nil {
		return none, err
	}
	start := time.Now()
	built, err := build(dir)
	if err != nil {
		return none, fmt.Errorf("set-up: %w", err)
	}
	e.setupTook = append(e.setupTook, time.Since(start).Seconds())
	return built, nil
}

// segments splits the measured window evenly over p.setups freshly built
// rigs and runs measure on each in turn. How long a token rotation takes
// differs from one assembled rig to the next by several per cent (which
// timers happen to share a tick) and holds for the rig's life, so one rig
// per run would make that draw the run's result; the run's figures pool
// the segments' samples. The same builds are what setup_s is the median of.
func segments[T closer](e *env, build func(dir string) (T, error), measure func(seg int, r T, span time.Duration) error) error {
	for seg := 0; seg < e.p.setups; seg++ {
		r, err := timedBuild(e, build)
		if err != nil {
			return err
		}
		err = measure(seg, r, e.p.window/time.Duration(e.p.setups))
		e.tr.finishWrites()
		r.close()
		if err != nil {
			return err
		}
	}
	return nil
}

// segSeed derives the seed of one segment's generators from the run's.
func (e *env) segSeed(seg int) int64 { return streamSeed(e.p.seed, 1<<20+seg) }

// --- measured window ---

// window brackets one measured stretch on one rig: wall time, process CPU
// and (traced pass) runtime and registry accounting. Closing it adds its
// growth to the run's totals.
type window struct {
	e      *env
	g      *rig
	start  time.Time
	end    time.Time
	proc0  procSnap
	reg0   map[string]int64
	trace0 traceCounts
	stop   chan struct{}
	wg     sync.WaitGroup
	extra  []counterSource
}

// totals is what the windows of a run add up to.
type totals struct {
	seconds float64
	proc    procSnap
	heapMax atomic.Uint64
	reg     map[string]int64 // counter growth, summed over members and extra sources
	trace   traceCounts
	rtt     stats.HistogramSummary // member 1's token round trips in the last window
}

// counterSource is a registry outside the members' own (gateway, simnet).
type counterSource func() map[string]int64

func (e *env) openWindow(g *rig, extra ...counterSource) *window {
	w := &window{e: e, g: g, extra: extra, stop: make(chan struct{})}
	if e.tr != nil {
		for _, m := range g.members() {
			m.reg.Histogram(stats.HistTokenRoundTrip).Reset()
		}
		w.reg0 = w.counters()
		w.trace0 = e.tr.counts()
		w.proc0 = snapProc()
		// Heap sampling stops the world briefly, so only the traced pass,
		// whose timings are not the end-to-end ones, pays for it.
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			t := time.NewTicker(250 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-w.stop:
					return
				case <-t.C:
					var m runtime.MemStats
					runtime.ReadMemStats(&m)
					if m.HeapInuse > e.tot.heapMax.Load() {
						e.tot.heapMax.Store(m.HeapInuse)
					}
				}
			}
		}()
	} else {
		w.proc0 = procSnap{cpu: cpuTime()}
	}
	w.start = time.Now()
	return w
}

func (w *window) close() {
	w.end = time.Now()
	tot := &w.e.tot
	tot.seconds += w.end.Sub(w.start).Seconds()
	if w.e.tr != nil {
		tot.proc.add(w.proc0, snapProc())
		for name, v := range w.counters() {
			tot.reg[name] += v - w.reg0[name]
		}
		tot.trace.add(w.trace0, w.e.tr.counts())
		if m := w.g.member(1); m != nil {
			tot.rtt = m.reg.Histogram(stats.HistTokenRoundTrip).Summary()
		}
	} else {
		tot.proc.add(w.proc0, procSnap{cpu: cpuTime()})
	}
	close(w.stop)
	w.wg.Wait()
}

// cpuPerKop is proc.cpu_ms_per_kop: process user+system CPU over the
// run's windows per thousand completed operations.
func (e *env) cpuPerKop(completed int64) float64 {
	return ratio(ms(int64(e.tot.proc.cpu)), float64(completed)/1000)
}

// counters sums every counter over the registries of every incarnation of
// every member of the window's rig, and the extra sources.
func (w *window) counters() map[string]int64 {
	out := make(map[string]int64)
	w.g.mu.RLock()
	all := append([]*member(nil), w.g.all...)
	w.g.mu.RUnlock()
	for _, m := range all {
		for name, v := range m.reg.Snapshot().Counters {
			out[name] += v
		}
	}
	for _, src := range w.extra {
		for name, v := range src() {
			out[name] += v
		}
	}
	return out
}

// delta is a counter's growth over the run's windows (traced pass only).
func (e *env) delta(name string) float64 { return float64(e.tot.reg[name]) }

// deltaPrefix sums the growth of every counter whose name starts with
// prefix and contains every one of the given substrings — the labelled
// gateway_requests_total{op=...,outcome=...} series.
func (e *env) deltaPrefix(prefix string, contains ...string) float64 {
	var total float64
next:
	for name, v := range e.tot.reg {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		for _, c := range contains {
			if !strings.Contains(name, c) {
				continue next
			}
		}
		total += float64(v)
	}
	return total
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// --- shared stream plumbing ---

// pacedWrites is an open-loop paced Set stream through one facade handle:
// request i is due at sched.due(i), runs on its own goroutine (the caller
// is an element linking the library, not an OS thread), and is timed from
// its due time. It is the paced write stream of write-burst (the probe),
// read-mix (the writer) and failover.
type pacedWrites struct {
	e      *env
	h      gateway.Backend
	t      *keyTable
	order  []int32
	writer uint32
	sched  schedule
	// deadline is each write's own; 0 means opDeadline.
	deadline time.Duration
	acks     ackLog
	// Requests due before measureFrom are warm-up: issued, not counted.
	measureFrom time.Time
	completed   atomic.Int64
	wg          sync.WaitGroup

	mu      sync.Mutex
	acked   []ackedWrite
	lastKey int32 // the most recently acked write, for failover's caught-up test
	lastVer uint64
}

// ackedWrite is one measured write: when it was due and how long after
// that its ack arrived.
type ackedWrite struct {
	due time.Time
	lat time.Duration
}

// run issues requests until ctx is done, then waits for those in flight.
func (s *pacedWrites) run(ctx context.Context) {
	deadline := opDeadline
	if s.deadline > 0 {
		deadline = s.deadline
	}
	for i := 0; ctx.Err() == nil; i++ {
		due, late := s.sched.wait(i)
		if ctx.Err() != nil {
			break
		}
		if !due.Before(s.measureFrom) {
			s.e.late.note(late)
		}
		k := s.order[i%len(s.order)]
		name := s.t.names[k]
		v := s.t.nextVersion(k)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			octx, cancel := context.WithTimeout(context.Background(), deadline)
			err := s.h.Set(octx, name, encodeValue(name, s.writer, v, 0, valueBytes))
			cancel()
			now := time.Now()
			s.t.settle(k, v, false, err == nil)
			if due.Before(s.measureFrom) {
				return
			}
			s.e.done(err)
			if err == nil {
				s.completed.Add(1)
				s.acks.note(now)
				s.mu.Lock()
				s.acked = append(s.acked, ackedWrite{due, now.Sub(due)})
				s.lastKey, s.lastVer = k, v
				s.mu.Unlock()
			}
		}()
	}
	s.wg.Wait()
}

// latencies returns the due->ack latencies of the writes whose due time
// keep accepts (nil keeps all).
func (s *pacedWrites) latencies(keep func(due time.Time) bool) *samples {
	out := &samples{}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.acked {
		if keep == nil || keep(a.due) {
			out.ns = append(out.ns, int64(a.lat))
		}
	}
	return out
}

// reportWrites fills write_p50_ms / write_p95_ms from a latency sample.
func (e *env) reportWrites(lat *samples) {
	sorted := lat.sorted()
	e.setE2E("write_p50_ms", ms(percentile(sorted, 50)), len(sorted))
	e.setE2E("write_p95_ms", ms(percentile(sorted, 95)), len(sorted))
	hi := highestPercentile(len(sorted))
	e.setLayer("raincore.write_hi_pct", hi, len(sorted))
	e.setLayer("raincore.write_hi_ms", ms(percentile(sorted, hi)), len(sorted))
}
