package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	raincore "repro"
	"repro/internal/gateway"
)

// write-burst: 32 closed-loop goroutine callers spread over the three
// members' facades over real UDP loopback sockets, 90 % Set / 10 % Delete,
// uniform over 4096 keys, 90 % 64 B / 10 % 1 KiB values. Throughput is the
// headline; closed-loop latency percentiles are a token-holder burst
// artefact and are not reported. The latency a light user sees under the
// burst comes from a separate paced probe: 200 Set/s through member 1,
// timed from the due time.
const (
	burstCallers     = 32
	burstKeys        = 4096
	burstProbeKeys   = 1024
	burstProbePeriod = 5 * time.Millisecond
	burstProbeWriter = 1000
)

type burstRig struct {
	*rig
	keys  *keyTable
	probe *keyTable
}

func runWriteBurst(ctx context.Context, e *env) error {
	var sets, dels atomic.Int64
	var probed int64
	probeLat := &samples{}
	var gaps []float64
	build := func(dir string) (*burstRig, error) {
		g, err := openRig(ctx, rigConfig{members: rigMembers, udp: true, seed: e.p.seed, dir: dir, tr: e.tr})
		if err != nil {
			return nil, err
		}
		return &burstRig{rig: g, keys: newKeyTable("b", e.p.keys(burstKeys)), probe: newKeyTable("p", e.p.keys(burstProbeKeys))}, nil
	}
	err := segments(e, build, func(seg int, r *burstRig, span time.Duration) error {
		seed := e.segSeed(seg)
		lctx, stop := context.WithCancel(ctx)
		defer stop()
		var measuring atomic.Bool
		var wg sync.WaitGroup
		for c := 0; c < burstCallers; c++ {
			h := e.handle(r.rig, raincore.NodeID(c%rigMembers+1))
			gen := newBurstGen(seed, c, burstCallers, len(r.keys.names))
			wg.Add(1)
			go func() {
				defer wg.Done()
				burstCaller(lctx, e, h, r.keys, gen, uint32(c+1), &measuring, &sets, &dels)
			}()
		}
		start := time.Now()
		probe := &pacedWrites{
			e: e, h: e.handle(r.rig, 1), t: r.probe, order: permutation(seed, burstProbeWriter, len(r.probe.names)),
			writer: burstProbeWriter, measureFrom: start.Add(warmup),
			sched: schedule{start: start, period: burstProbePeriod, jitter: burstProbePeriod, seed: uint64(streamSeed(seed, burstProbeWriter))},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			probe.run(lctx)
		}()

		time.Sleep(time.Until(probe.measureFrom))
		w := e.openWindow(r.rig)
		measuring.Store(true)
		time.Sleep(span)
		measuring.Store(false)
		w.close()
		stop()
		wg.Wait()

		probed += probe.completed.Load()
		probeLat.merge(probe.latencies(nil))
		gaps = append(gaps, probe.acks.gaps(w.start, w.end, gapWindow)...)
		e.orc.converged(ctx, r.members(), nil, r.keys, r.probe)
		return nil
	})
	if err != nil {
		return err
	}

	burst := sets.Load() + dels.Load()
	completed := burst + probed
	e.reportWrites(probeLat)
	e.setE2E("ack_gap_p50_ms", medianFloat(gaps), len(gaps))
	e.setE2E("ops_per_s", float64(burst)/e.tot.seconds, int(burst))
	e.setLayer("proc.cpu_ms_per_kop", e.cpuPerKop(completed), int(completed))
	e.setLayer("raincore.set_per_s", float64(sets.Load())/e.tot.seconds, int(sets.Load()))
	e.layerCommon(completed, completed)
	return nil
}

// burstCaller is one closed-loop writer: its next op goes out when the
// previous one returned.
func burstCaller(ctx context.Context, e *env, h gateway.Backend, t *keyTable, gen *burstGen, writer uint32,
	measuring *atomic.Bool, sets, dels *atomic.Int64) {
	for ctx.Err() == nil {
		o := gen.next()
		name := t.names[o.Key]
		v := t.nextVersion(o.Key)
		octx, cancel := context.WithTimeout(context.Background(), opDeadline)
		var err error
		if o.Kind == opDelete {
			err = h.Delete(octx, name)
		} else {
			err = h.Set(octx, name, encodeValue(name, writer, v, 0, int(o.Size)))
		}
		cancel()
		t.settle(o.Key, v, o.Kind == opDelete, err == nil)
		if !measuring.Load() {
			continue
		}
		e.done(err)
		if err == nil {
			if o.Kind == opDelete {
				dels.Add(1)
			} else {
				sets.Add(1)
			}
		}
	}
}
