package main

import (
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	raincore "repro"
)

// read-mix: 16 384 keys preloaded (64 per copy-on-write bucket), then
// closed-loop goroutine callers on member 2 beside one paced writer on
// member 1 at 200 Set/s over the same keys. The writer beside the readers
// makes a read-path gain that costs apply / bucket-clone time (or the
// reverse) visible.
//
// The three modes a fresh replica serves locally (eventual, bounded 50 ms,
// lease 100 ms) answer in well under a microsecond, so a closed-loop caller
// of one of them is a spinning core. One caller per mode would take every
// core of the reference box from the members it is reading from, and the
// run would measure the Go scheduler. So one caller rotates through the
// three in blocks of 1024 reads, one block every 4 ms (about a sixth of a
// core; at 2 ms the quartile spread of the writer's p95 over ten seeds was
// 3 to 7 %, at 4 ms 2 %), timing each block: reads per busy second is the
// closed-loop rate of a mode without the spinning. The linearizable and the session
// (Set-then-Get pairs on its own Session) callers, which wait on the ring,
// are closed-loop and get a goroutine each.
const (
	readKeys         = 16384
	readSessionKeys  = 256
	readWriterPeriod = 5 * time.Millisecond
	readWriter       = 1000
	readSessionID    = 1001
	readBounded      = 50 * time.Millisecond
	readLease        = 100 * time.Millisecond
	// A context per local read would cost more than the read; the rotating
	// caller issues a block of reads under one 2 s deadline.
	readBlock       = 1024
	readBlockPeriod = 4 * time.Millisecond
	// Every read's header (key hash, version) is checked; the padding of
	// every readFullCheck-th, so checking does not dominate a local read.
	readFullCheck = 64
)

type readRig struct {
	*rig
	keys    *keyTable
	session *keyTable
}

// readMode is one consistency mode of the rotating caller and what it
// completed.
type readMode struct {
	how   string
	opts  []raincore.ReadOption
	count int64
	busy  time.Duration
}

func (m *readMode) perSecond() float64 { return ratio(float64(m.count), m.busy.Seconds()) }

// xorshift is the callers' key chooser, seeded from the workload seed.
type xorshift uint64

func (x *xorshift) next(n int) int32 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return int32(uint64(*x) % uint64(n))
}

// localReads is the rotating caller: every readBlockPeriod a block of reads
// in one mode, then the next mode. Counts are local and published once — at
// a million reads a second a shared counter would be the hottest cache line
// in the process.
func localReads(ctx context.Context, e *env, cl *raincore.Cluster, t *keyTable, rng xorshift, modes []*readMode, measuring *atomic.Bool) {
	var done, failed int64
	sched := schedule{start: time.Now(), period: readBlockPeriod}
	for b := 0; ctx.Err() == nil; b++ {
		sched.wait(b)
		m := modes[b%len(modes)]
		counted := measuring.Load()
		start := time.Now()
		octx, cancel := context.WithTimeout(context.Background(), opDeadline)
		var ok, bad int64
		for i := 0; i < readBlock; i++ {
			k := rng.next(len(t.names))
			val, found, err := cl.Get(octx, t.names[k], m.opts...)
			if err != nil {
				bad++
				continue
			}
			ok++
			if i%readFullCheck == 0 {
				e.orc.checkRead(t, k, val, found, 0, m.how)
			} else if !headerOK(val, found, t.hashes[k], 0) {
				e.orc.violate("%s read of %s returned another key's value", m.how, t.names[k])
			}
		}
		cancel()
		if counted && measuring.Load() {
			m.count += ok
			m.busy += time.Since(start)
			done, failed = done+ok, failed+bad
		}
	}
	e.attempted.Add(done + failed)
	e.failed.Add(failed)
}

// linReads is the linearizable caller: every read fences on the key's
// ring, and must return a version no older than the last one acked for the
// key before the read was issued.
//
// Its per-read latency is not reported: a closed-loop caller on a token
// ring bursts while its member holds the token and waits out the rest of
// the rotation, so its percentiles describe the hold time, not the read.
func linReads(ctx context.Context, e *env, cl *raincore.Cluster, t *keyTable, rng xorshift, measuring *atomic.Bool, count *atomic.Int64) {
	for ctx.Err() == nil {
		k := rng.next(len(t.names))
		floor := t.acked[k].Load()
		octx, cancel := context.WithTimeout(context.Background(), opDeadline)
		val, found, err := cl.Get(octx, t.names[k], raincore.WithLinearizable())
		cancel()
		if !measuring.Load() {
			continue
		}
		e.done(err)
		if err == nil {
			count.Add(1)
			e.orc.checkRead(t, k, val, found, floor, "linearizable")
		}
	}
}

// headerOK is the cheap per-read check: the value names this key and is no
// older than the version acked before the read was issued.
func headerOK(val []byte, found bool, hash, floor uint64) bool {
	if !found {
		return floor == 0
	}
	return len(val) >= valueHeader &&
		binary.LittleEndian.Uint64(val) == hash &&
		binary.LittleEndian.Uint64(val[12:]) >= floor
}

// sessionPairs is the session caller: write a key through the session,
// read it back through the session, and require exactly that write.
func sessionPairs(ctx context.Context, e *env, cl *raincore.Cluster, t *keyTable, measuring *atomic.Bool, count *atomic.Int64) {
	sess := cl.NewSession()
	for i := 0; ctx.Err() == nil; i++ {
		k := int32(i % len(t.names))
		name := t.names[k]
		v := t.nextVersion(k)
		octx, cancel := context.WithTimeout(context.Background(), opDeadline)
		err := sess.Set(octx, name, encodeValue(name, readSessionID, v, 0, valueBytes))
		t.settle(k, v, false, err == nil)
		var val []byte
		var found bool
		if err == nil {
			val, found, err = sess.Get(octx, name)
		}
		cancel()
		if !measuring.Load() {
			continue
		}
		e.done(err)
		if err != nil {
			continue
		}
		count.Add(1)
		if d, derr := decodeValue(name, val); !found || derr != nil || d.version != v {
			e.orc.violate("session read of %s did not see the session's own write (found=%v version %d, wrote %d, %v)", name, found, d.version, v, derr)
		}
	}
}

func runReadMix(ctx context.Context, e *env) error {
	modes := []*readMode{
		{how: "eventual"},
		{how: "bounded", opts: []raincore.ReadOption{raincore.WithMaxStaleness(readBounded)}},
		{how: "lease", opts: []raincore.ReadOption{raincore.WithReadLease(readLease)}},
	}
	var linReadsDone, sessionReads atomic.Int64
	var written int64
	writeLat := &samples{}
	var gaps []float64
	build := func(dir string) (*readRig, error) {
		g, err := openRig(ctx, rigConfig{members: rigMembers, seed: e.p.seed, dir: dir, tr: e.tr})
		if err != nil {
			return nil, err
		}
		rr := &readRig{rig: g, keys: newKeyTable("r", e.p.keys(readKeys)), session: newKeyTable("s", e.p.keys(readSessionKeys))}
		if err := g.preload(ctx, rr.keys, 256); err != nil {
			g.close()
			return nil, err
		}
		return rr, nil
	}
	err := segments(e, build, func(seg int, r *readRig, span time.Duration) error {
		seed := e.segSeed(seg)
		cl := r.cluster(2)
		lctx, stop := context.WithCancel(ctx)
		defer stop()
		var measuring atomic.Bool
		var wg sync.WaitGroup
		run := func(fn func()) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn()
			}()
		}
		run(func() { localReads(lctx, e, cl, r.keys, xorshift(streamSeed(seed, 0))|1, modes, &measuring) })
		run(func() { linReads(lctx, e, cl, r.keys, xorshift(streamSeed(seed, 1))|1, &measuring, &linReadsDone) })
		run(func() { sessionPairs(lctx, e, cl, r.session, &measuring, &sessionReads) })
		start := time.Now()
		writer := &pacedWrites{
			e: e, h: e.handle(r.rig, 1), t: r.keys, order: permutation(seed, readWriter, len(r.keys.names)),
			writer: readWriter, measureFrom: start.Add(warmup),
			sched: schedule{start: start, period: readWriterPeriod, jitter: readWriterPeriod, seed: uint64(streamSeed(seed, readWriter))},
		}
		run(func() { writer.run(lctx) })

		time.Sleep(time.Until(writer.measureFrom))
		w := e.openWindow(r.rig, func() map[string]int64 { return r.net.Stats().Snapshot().Counters })
		measuring.Store(true)
		time.Sleep(span)
		measuring.Store(false)
		w.close()
		stop()
		wg.Wait()

		written += writer.completed.Load()
		writeLat.merge(writer.latencies(nil))
		gaps = append(gaps, writer.acks.gaps(w.start, w.end, gapWindow)...)
		e.orc.converged(ctx, r.members(), nil, r.keys, r.session)
		return nil
	})
	if err != nil {
		return err
	}

	var local int64
	var busy time.Duration
	for _, m := range modes {
		local += m.count
		busy += m.busy
	}
	lin, session := linReadsDone.Load(), sessionReads.Load()
	writes := written + session
	completed := local + lin + session + writes
	e.reportWrites(writeLat)
	e.setE2E("ack_gap_p50_ms", medianFloat(gaps), len(gaps))
	// ops_per_s is schedule-bound (the rotating caller's blocks): it falls
	// only if a block no longer fits its period. How fast the reads are is
	// dds.get_*_per_s, reads per busy second.
	e.setE2E("ops_per_s", float64(local+lin+session)/e.tot.seconds, int(local+lin+session))
	e.setLayer("dds.get_local_per_s", ratio(float64(local), busy.Seconds()), int(local))
	e.setLayer("proc.cpu_ms_per_kop", e.cpuPerKop(completed), int(completed))

	e.setLayer("dds.get_ev_per_s", modes[0].perSecond(), int(modes[0].count))
	e.setLayer("dds.get_bounded_per_s", modes[1].perSecond(), int(modes[1].count))
	e.setLayer("dds.get_lease_per_s", modes[2].perSecond(), int(modes[2].count))
	e.setLayer("dds.get_session_per_s", float64(session)/e.tot.seconds, int(session))
	e.setLayer("dds.get_lin_per_s", float64(lin)/e.tot.seconds, int(lin))
	e.layerCommon(completed, writes)
	return nil
}
