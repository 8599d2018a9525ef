package main

import (
	"context"
	"fmt"
	"time"

	raincore "repro"
)

// failover: every kill cycle runs on a freshly built rig with 2048 keys
// preloaded and writes them in the same order, so cycle 9 is the same
// experiment as cycle 1. A cycle: an
// open-loop Set stream at 500/s from member 1, due-time scheduled and never
// paused during the fault, runs for a 0.25 s lead-in and 0.5 s of steady
// state -> the victim (members 3 and 2 alternate; the seed picks who goes
// first) is crashed E10-style, no leave -> the stream runs on for 1 s, in
// which the longest gap between acks is the fail-over hiccup -> the stream
// stops and drains -> once both survivors report 2 members the victim is
// reopened over its WAL directory and timed until it is Joined(), serves
// (eventual) the last write acked before the reopen, holds the survivors'
// key count and every member lists every member on every ring -> all three
// members are checked against every acked write -> the rig is torn down.
//
// One cycle per rig and a restart with the stream stopped (as in E10) are
// what this commit can do reliably: a restart under load, or a second
// restart of the same member, can leave the restarted replica parked in
// state-transfer mode holding stale values for good (README, "Limits").
const (
	failKeys      = 2048
	failPeriod    = 2 * time.Millisecond
	failWriter    = 1000
	failLeadIn    = 250 * time.Millisecond
	failSteady    = 500 * time.Millisecond
	failAfterKill = time.Second
	failCycleCap  = 10 * time.Second
	// About one kill in twenty leaves one of the two rings not ordering for
	// 1.3 to 2.1 s (measured over 400 kills at this commit) while the other
	// carries on. Under the rig's 2 s deadline the slowest of those writes
	// would fail; the stream gives them 5 s, so the stall is reported as
	// latency (failover.write_max_ms) and no operation of a healthy run fails.
	failDeadline = 5 * time.Second
)

type failRig struct {
	*rig
	keys *keyTable
}

func runFailover(ctx context.Context, e *env) error {
	build := func(dir string) (*failRig, error) {
		g, err := openRig(ctx, rigConfig{members: rigMembers, seed: e.p.seed, dir: dir, tr: e.tr})
		if err != nil {
			return nil, err
		}
		fr := &failRig{rig: g, keys: newKeyTable("f", e.p.keys(failKeys))}
		if err := g.preload(ctx, fr.keys, 64); err != nil {
			g.close()
			return nil, err
		}
		return fr, nil
	}
	// More cycles than any window fits; the loop stops on time.
	order := victims(e.p.seed, 1+int(e.p.window/failSteady))
	keyOrder := permutation(e.p.seed, failWriter, e.p.keys(failKeys))
	steady := &samples{}
	var gaps, rejoins []float64
	var completed, lost, slowest int64
	var streaming time.Duration

	// cycle is one kill and restart on a rig of its own. It reports false
	// when the restart failed: the cluster may be wedged, and later cycles
	// would measure that, not failover.
	cycle := func(c int) (bool, error) {
		r, err := timedBuild(e, build)
		if err != nil {
			return false, err
		}
		defer r.close()
		victim := raincore.NodeID(order[c])
		failedBefore := e.failed.Load()
		w := e.openWindow(r.rig)
		defer w.close()
		start := time.Now()
		stream := &pacedWrites{
			e: e, h: e.handle(r.rig, 1), t: r.keys, order: keyOrder,
			writer: failWriter, measureFrom: start.Add(failLeadIn), deadline: failDeadline,
			sched: schedule{start: start, period: failPeriod, jitter: failPeriod, seed: uint64(streamSeed(e.p.seed, failWriter+c))},
		}
		sctx, stop := context.WithCancel(ctx)
		done := make(chan struct{})
		go func() {
			defer close(done)
			stream.run(sctx)
		}()
		time.Sleep(failLeadIn + failSteady)
		killed := time.Now()
		r.crash(victim)
		time.Sleep(failAfterKill)
		// The drain that follows is not streaming time: a write that stalls
		// and is acked late still counts, one that fails does not.
		streaming += time.Since(stream.measureFrom)
		stop()
		<-done
		completed += stream.completed.Load()
		steady.merge(stream.latencies(func(due time.Time) bool { return due.Before(killed) }))
		for _, ns := range stream.latencies(nil).ns {
			slowest = max(slowest, ns)
		}
		gap := ms(int64(stream.acks.longestGap(killed, failAfterKill)))
		gaps = append(gaps, gap)

		took, err := r.restart(ctx, victim, stream)
		e.done(err)
		if err != nil {
			fmt.Fprintf(logw, "failover cycle %d: %v\n", c, err)
			return false, nil
		}
		rejoins = append(rejoins, ms(int64(took)))
		fmt.Fprintf(logw, "failover cycle %d: killed member %d, longest ack gap %.1f ms, rejoin %.1f ms, %d writes failed\n",
			c, victim, gap, ms(int64(took)), e.failed.Load()-failedBefore)
		lost += int64(e.orc.converged(ctx, r.members(), nil, r.keys))
		e.tr.finishWrites()
		return true, nil
	}
	for c, began := 0, time.Now(); time.Since(began) < e.p.window && ctx.Err() == nil; c++ {
		if ok, err := cycle(c); err != nil {
			return err
		} else if !ok {
			break
		}
	}

	cycles := len(gaps)
	// Write latency is the steady state before each fault; what the fault
	// costs shows in ack_gap_p50_ms and failover.rejoin_p50_ms.
	e.reportWrites(steady)
	e.setE2E("ack_gap_p50_ms", lowerMedian(gaps), cycles)
	e.setE2E("ops_per_s", ratio(float64(completed), streaming.Seconds()), int(completed))
	e.setLayer("proc.cpu_ms_per_kop", e.cpuPerKop(completed), int(completed))

	e.setLayer("failover.gap_p50_ms", lowerMedian(gaps), cycles)
	var gapMax float64
	for _, g := range gaps {
		gapMax = max(gapMax, g)
	}
	e.setLayer("failover.gap_max_ms", gapMax, cycles)
	e.setLayer("failover.write_max_ms", ms(slowest), int(completed))
	e.setLayer("failover.rejoin_p50_ms", lowerMedian(rejoins), len(rejoins))
	e.setLayer("failover.cycles", float64(cycles), cycles)
	e.setLayer("failover.lost_acked_writes", float64(lost), int(completed))
	e.layerCommon(completed, completed)
	if e.tr != nil && cycles > 0 {
		for _, name := range []string{"ring.token_regens", "ring.merges", "wal.replayed_records", "wal.delta_rejoins", "wal.full_rejoins"} {
			e.setLayer(name+"_per_cycle", e.layer[name].value/float64(cycles), cycles)
		}
		e.setLayer("core.removals_per_cycle", float64(e.tr.removals.Load())/float64(cycles), cycles)
	}
	return nil
}

// restart reopens a crashed member once both survivors have removed it,
// and returns how long the reopened member took to catch up.
func (r *failRig) restart(ctx context.Context, victim raincore.NodeID, stream *pacedWrites) (time.Duration, error) {
	cctx, cancel := context.WithTimeout(ctx, failCycleCap)
	defer cancel()
	survivors := r.members()
	for _, m := range survivors {
		if err := m.cl.WaitMembers(cctx, rigMembers-1); err != nil {
			return 0, fmt.Errorf("survivors never removed member %d: %w", victim, err)
		}
	}
	stream.mu.Lock()
	key, version := stream.lastKey, stream.lastVer
	stream.mu.Unlock()
	reopened := time.Now()
	if err := r.reopen(cctx, victim); err != nil {
		return 0, err
	}
	cl := r.cluster(victim)
	name := r.keys.names[key]
	for {
		if cl.Joined() && r.assembled() {
			val, found, _ := cl.Get(cctx, name)
			if d, err := decodeValue(name, val); found && err == nil && d.version >= version &&
				len(cl.Keys()) == len(survivors[0].cl.Keys()) {
				return time.Since(reopened), nil
			}
		}
		select {
		case <-cctx.Done():
			return 0, fmt.Errorf("member %d did not catch up within %v of its reopen", victim, failCycleCap)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// assembled reports whether every member lists every member on every ring.
func (r *failRig) assembled() bool {
	for _, m := range r.members() {
		for _, rh := range m.cl.Health().Rings {
			if len(rh.Members) != rigMembers || rh.Exited {
				return false
			}
		}
	}
	return true
}
