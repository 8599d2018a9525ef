package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// samples collects latencies (nanoseconds). Closed-loop callers own one
// each; open-loop streams share one behind its mutex.
type samples struct {
	mu sync.Mutex
	ns []int64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.ns = append(s.ns, int64(d))
	s.mu.Unlock()
}

func (s *samples) merge(o *samples) {
	o.mu.Lock()
	defer o.mu.Unlock()
	s.mu.Lock()
	s.ns = append(s.ns, o.ns...)
	s.mu.Unlock()
}

func (s *samples) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ns)
}

// sorted returns the samples in ascending order.
func (s *samples) sorted() []int64 {
	s.mu.Lock()
	out := append([]int64(nil), s.ns...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentile is the nearest-rank percentile (p in (0,100]) of an ascending
// slice: the smallest sample with at least p % of the samples at or below
// it. An empty slice has no percentile and reports 0.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailLadder is the set of tail percentiles a report may name.
var tailLadder = []float64{50, 90, 95, 99, 99.9, 99.99}

// highestPercentile picks the highest ladder percentile that still has at
// least ten samples beyond it — the tail a sample of n supports.
func highestPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		// The epsilon absorbs 100-99.9 not being exactly 0.1 in binary.
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// lowerMedian is the median that never averages: with an even count it is
// the lower of the two middle values. The per-cycle fail-over figures use
// it because about one kill in five lands far out (hundreds of ms against
// 40), and averaging one such value into the middle of eight would let four
// bad cycles, rather than five, move the run's figure.
func lowerMedian(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// --- due-time schedule ---

// schedule is an open-loop timetable: request i is due at start + i*period
// plus a seeded offset inside [0, jitter). Latency is timed from the due
// time, so a stall charges the requests that queued behind it, and lateness
// (how far past due the generator actually issued) is reported on its own.
//
// The jitter is there because a metronome locks phase with the token: a
// 20 ms request period against a 16 ms rotation visits the same four points
// of the rotation all run long, and which four is an accident of the start
// time that moved the median by a third from run to run.
type schedule struct {
	start  time.Time
	period time.Duration
	jitter time.Duration
	seed   uint64
}

func (s schedule) due(i int) time.Time {
	due := s.start.Add(time.Duration(i) * s.period)
	if s.jitter > 0 {
		// splitmix64 of (seed, i): stateless, so due(i) is a pure function.
		x := s.seed + uint64(i+1)*0x9E3779B97F4A7C15
		x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
		x = (x ^ x>>27) * 0x94D049BB133111EB
		due = due.Add(time.Duration((x ^ x>>31) % uint64(s.jitter)))
	}
	return due
}

// wait sleeps until request i is due and returns the due time and how late
// the generator woke.
func (s schedule) wait(i int) (due time.Time, late time.Duration) {
	due = s.due(i)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	if late = time.Since(due); late < 0 {
		late = 0
	}
	return due, late
}

// lateness tracks the worst generator lateness across goroutines.
type lateness struct {
	mu  sync.Mutex
	max time.Duration
}

func (l *lateness) note(d time.Duration) {
	l.mu.Lock()
	if d > l.max {
		l.max = d
	}
	l.mu.Unlock()
}

// --- ack gaps ---

// ackLog is the completion times of one paced write stream.
type ackLog struct {
	mu sync.Mutex
	at []time.Time
}

func (a *ackLog) note(t time.Time) {
	a.mu.Lock()
	a.at = append(a.at, t)
	a.mu.Unlock()
}

// longestGap is the longest interval between consecutive acks inside
// [from, from+span). The window's edges count as acks, so a window the
// stream never completed in reports the whole span.
func (a *ackLog) longestGap(from time.Time, span time.Duration) time.Duration {
	a.mu.Lock()
	at := append([]time.Time(nil), a.at...)
	a.mu.Unlock()
	sort.Slice(at, func(i, j int) bool { return at[i].Before(at[j]) })
	end := from.Add(span)
	prev, longest := from, time.Duration(0)
	for _, t := range at {
		if t.Before(from) {
			continue
		}
		if !t.Before(end) {
			break
		}
		if g := t.Sub(prev); g > longest {
			longest = g
		}
		prev = t
	}
	if g := end.Sub(prev); g > longest {
		longest = g
	}
	return longest
}

// gapWindow is the window ack_gap_p50_ms uses where no fault is injected:
// short, so a run yields many windows and their median is steady. (On
// failover the windows are the second after each kill.)
const gapWindow = 250 * time.Millisecond

// gaps cuts [from, to) into back-to-back windows of span and returns the
// longest ack gap (ms) inside each; ack_gap_p50_ms is their median.
func (a *ackLog) gaps(from, to time.Time, span time.Duration) []float64 {
	var out []float64
	for t := from; !t.Add(span).After(to); t = t.Add(span) {
		out = append(out, ms(int64(a.longestGap(t, span))))
	}
	return out
}

// --- process accounting ---

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procSnap is the runtime accounting the proc.* metrics are deltas of.
type procSnap struct {
	cpu     time.Duration
	mallocs uint64
	gcPause uint64
}

// add accumulates the growth between two snapshots.
func (p *procSnap) add(from, to procSnap) {
	p.cpu += to.cpu - from.cpu
	p.mallocs += to.mallocs - from.mallocs
	p.gcPause += to.gcPause - from.gcPause
}

func snapProc() procSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSnap{cpu: cpuTime(), mallocs: m.Mallocs, gcPause: m.PauseTotalNs}
}
