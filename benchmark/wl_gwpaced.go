package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/internal/stats"
)

// gw-paced: the real gateway over member 1 behind HTTP/1.1 keep-alive
// connections, each issuing one request at a time on a fixed schedule,
// latency timed from the due time. Four key-value connections, one request
// per 20 ms each, carry PUT / linearizable GET / eventual GET 4:2:3; two txn
// connections, one POST /txn per 90 ms each, carry the mix's txn tenth. A
// txn (2PC: several token rotations, up to 50 ms) on a key-value connection
// would push the requests queued behind it past their due times, and the PUT
// tail would then measure where the seed happened to place the txns. The
// count of connections is fixed, not the core count, so the offered load is
// the same on every box. Nothing else contends, so a PUT's latency is the
// blocking chain http -> facade -> token wait -> ordered apply -> ack.
const (
	gwKVConns   = 4
	gwKVPeriod  = 20 * time.Millisecond
	gwTxnConns  = 2
	gwTxnPeriod = 90 * time.Millisecond
	gwKeys      = 4096
	gwPairs     = 256
)

type gwRig struct {
	*rig
	gw    *gateway.Gateway
	reg   *stats.Registry
	url   string
	keys  *keyTable
	pairs *pairTable
}

func (r *gwRig) close() {
	_ = r.gw.Close()
	r.rig.close()
}

func buildGwRig(ctx context.Context, e *env, dir string) (*gwRig, error) {
	g, err := openRig(ctx, rigConfig{members: rigMembers, seed: e.p.seed, dir: dir, tr: e.tr})
	if err != nil {
		return nil, err
	}
	r := &gwRig{rig: g, reg: stats.NewRegistry(), keys: newKeyTable("g", e.p.keys(gwKeys))}
	if err := g.preload(ctx, r.keys, 64); err != nil {
		g.close()
		return nil, err
	}
	cl := g.cluster(1)
	r.pairs = newPairTable(e.p.keys(gwPairs), cl.DDS().ShardFor)
	txn := gateway.TxnFunc(func(ctx context.Context, req gateway.TxnRequest) (map[string][]byte, error) {
		tx := cl.Txn()
		for _, k := range req.Reads {
			tx.Read(k)
		}
		for k, v := range req.Sets {
			tx.Set(k, v)
		}
		return tx.Commit(ctx)
	})
	if e.tr != nil {
		txn = e.tr.wrapTxn(txn)
	}
	r.gw, err = gateway.New(gateway.Options{
		Backend:        e.handle(g, 1),
		Txn:            txn,
		Registry:       r.reg,
		DefaultTimeout: opDeadline,
	})
	if err != nil {
		g.close()
		return nil, err
	}
	addr, err := r.gw.Start("127.0.0.1:0")
	if err != nil {
		g.close()
		return nil, err
	}
	r.url = "http://" + addr
	return r, nil
}

// gwConn is one keep-alive connection: its schedule and its per-kind
// latency samples.
type gwConn struct {
	e      *env
	r      *gwRig
	id     int
	client *http.Client
	ops    []op
	sched  schedule
	lat    [opTxn + 1]samples
	acks   *ackLog
	txnSeq uint64
}

var gwClass = [...]string{opSet: "set", opGetLin: "get", opGetEv: "get", opTxn: "txn"}

// run issues the connection's requests in order, each when it is due and
// the one before it has returned. Requests due before measureFrom are
// warm-up: issued, not counted.
func (c *gwConn) run(measureFrom time.Time) {
	for i, o := range c.ops {
		due, late := c.sched.wait(i)
		measured := !due.Before(measureFrom)
		if measured {
			c.e.late.note(late)
		}
		err := c.do(o)
		now := time.Now()
		if !measured {
			continue
		}
		c.e.done(err)
		if err == nil {
			c.lat[o.Kind].add(now.Sub(due))
			c.acks.note(now)
		}
	}
	c.client.CloseIdleConnections()
}

// do issues one request and checks its answer.
func (c *gwConn) do(o op) error {
	keys, pairs := c.r.keys, c.r.pairs
	timeout := "timeout=" + opDeadline.String()
	var req *http.Request
	var traceKey string
	var version, floor, txnID uint64
	switch o.Kind {
	case opSet:
		traceKey = keys.names[o.Key]
		version = keys.nextVersion(o.Key)
		val := encodeValue(traceKey, uint32(c.id+1), version, 0, int(o.Size))
		req, _ = http.NewRequest(http.MethodPut, c.r.url+"/kv/"+traceKey+"?"+timeout, bytes.NewReader(val))
	case opGetLin:
		traceKey = keys.names[o.Key]
		floor = keys.acked[o.Key].Load()
		req, _ = http.NewRequest(http.MethodGet, c.r.url+"/kv/"+traceKey+"?mode=linearizable&"+timeout, nil)
	case opGetEv:
		traceKey = keys.names[o.Key]
		req, _ = http.NewRequest(http.MethodGet, c.r.url+"/kv/"+traceKey+"?mode=eventual&"+timeout, nil)
	case opTxn:
		a, b := pairs.a[o.Key], pairs.b[o.Key]
		traceKey = a
		c.txnSeq++
		txnID = uint64(c.id+1)<<32 | c.txnSeq
		body, _ := json.Marshal(gateway.TxnRequest{
			Reads: []string{a, b},
			Sets: map[string][]byte{
				a: encodeValue(a, uint32(c.id+1), c.txnSeq, txnID, int(o.Size)),
				b: encodeValue(b, uint32(c.id+1), c.txnSeq, txnID, int(o.Size)),
			},
		})
		req, _ = http.NewRequest(http.MethodPost, c.r.url+"/txn?"+timeout, bytes.NewReader(body))
	}
	var r ref
	var start int64
	if tr := c.e.tr; tr != nil {
		r, start = tr.begin(gwClass[o.Kind], traceKey), tr.now()
	}
	status, body, err := c.roundTrip(req)
	if tr := c.e.tr; tr != nil {
		tr.end(gwClass[o.Kind], traceKey, r, "gateway.http."+o.Kind.String(), start, tr.now())
	}
	switch o.Kind {
	case opSet:
		ok := err == nil && status == http.StatusNoContent
		keys.settle(o.Key, version, false, ok)
		if !ok {
			return fmt.Errorf("put: status %d: %v", status, err)
		}
	case opGetLin, opGetEv:
		if err != nil || (status != http.StatusOK && status != http.StatusNotFound) {
			return fmt.Errorf("get: status %d: %v", status, err)
		}
		var got struct {
			Value []byte `json:"value"`
		}
		if status == http.StatusOK {
			if err := json.Unmarshal(body, &got); err != nil {
				return fmt.Errorf("get: bad body: %w", err)
			}
		}
		c.e.orc.checkRead(keys, o.Key, got.Value, status == http.StatusOK, floor, "gateway "+o.Kind.String())
	case opTxn:
		ok := err == nil && status == http.StatusOK
		if ok {
			var got struct {
				Reads map[string][]byte `json:"reads"`
			}
			if err := json.Unmarshal(body, &got); err != nil {
				return fmt.Errorf("txn: bad body: %w", err)
			}
			c.e.orc.checkTxnReads(pairs, o.Key, got.Reads)
			pairs.lastTxn[o.Key] = txnID
		}
		pairs.known[o.Key] = ok
		if !ok {
			return fmt.Errorf("txn: status %d: %v", status, err)
		}
	}
	return nil
}

func (c *gwConn) roundTrip(req *http.Request) (int, []byte, error) {
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func runGwPaced(ctx context.Context, e *env) error {
	var lat [opTxn + 1]samples
	var gaps []float64
	build := func(dir string) (*gwRig, error) { return buildGwRig(ctx, e, dir) }
	err := segments(e, build, func(seg int, r *gwRig, span time.Duration) error {
		seed := e.segSeed(seg)
		acks := &ackLog{}
		start := time.Now().Add(10 * time.Millisecond)
		measureFrom := start.Add(warmup)
		var cs []*gwConn
		for i := 0; i < gwKVConns+gwTxnConns; i++ {
			c := &gwConn{
				e: e, r: r, id: i, acks: acks,
				client: &http.Client{
					Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
					Timeout:   opDeadline + time.Second,
				},
			}
			// The connections of a class are staggered across its period, so
			// the gateway sees their requests evenly spaced; the jitter keeps a
			// stream from locking phase with the token (see schedule).
			period, offset := gwKVPeriod, time.Duration(i)*gwKVPeriod/gwKVConns
			if i < gwKVConns {
				c.ops = gwMix(seed, i, gwKVConns, len(r.keys.names), int((warmup+span)/period), valueBytes)
			} else {
				period, offset = gwTxnPeriod, time.Duration(i-gwKVConns)*gwTxnPeriod/gwTxnConns
				c.ops = txnMix(seed, i-gwKVConns, gwTxnConns, len(r.pairs.a), int((warmup+span)/period), valueBytes)
			}
			c.sched = schedule{start: start.Add(offset), period: period, jitter: period / 4, seed: uint64(streamSeed(seed, 100+i))}
			cs = append(cs, c)
		}
		var wg sync.WaitGroup
		for _, c := range cs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.run(measureFrom)
			}()
		}
		time.Sleep(time.Until(measureFrom))
		w := e.openWindow(r.rig,
			func() map[string]int64 { return r.reg.Snapshot().Counters },
			func() map[string]int64 { return r.net.Stats().Snapshot().Counters })
		wg.Wait()
		w.close()

		for _, c := range cs {
			for k := range lat {
				lat[k].merge(&c.lat[k])
			}
		}
		gaps = append(gaps, acks.gaps(w.start, w.end, gapWindow)...)
		e.orc.converged(ctx, r.members(), r.pairs, r.keys)
		return nil
	})
	if err != nil {
		return err
	}

	var completed int64
	for k := range lat {
		completed += int64(lat[k].count())
	}
	writes := int64(lat[opSet].count() + lat[opTxn].count())

	e.reportWrites(&lat[opSet])
	e.setE2E("ack_gap_p50_ms", medianFloat(gaps), len(gaps))
	e.setE2E("ops_per_s", float64(completed)/e.tot.seconds, int(completed))
	e.setLayer("proc.cpu_ms_per_kop", e.cpuPerKop(completed), int(completed))

	put, lin, ev, txn := lat[opSet].sorted(), lat[opGetLin].sorted(), lat[opGetEv].sorted(), lat[opTxn].sorted()
	e.setLayer("gateway.put_p50_ms", ms(percentile(put, 50)), len(put))
	e.setLayer("gateway.put_p95_ms", ms(percentile(put, 95)), len(put))
	e.setLayer("gateway.put_hi_pct", highestPercentile(len(put)), len(put))
	e.setLayer("gateway.put_hi_ms", ms(percentile(put, highestPercentile(len(put)))), len(put))
	e.setLayer("gateway.get_lin_p50_ms", ms(percentile(lin, 50)), len(lin))
	e.setLayer("gateway.get_lin_hi_pct", highestPercentile(len(lin)), len(lin))
	e.setLayer("gateway.get_lin_hi_ms", ms(percentile(lin, highestPercentile(len(lin)))), len(lin))
	e.setLayer("gateway.get_ev_p50_us", us(percentile(ev, 50)), len(ev))
	e.setLayer("gateway.txn_p50_ms", ms(percentile(txn, 50)), len(txn))
	e.layerCommon(completed, writes)
	e.layerGateway()
	return nil
}
