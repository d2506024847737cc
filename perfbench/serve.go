package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sknn"
	"sknn/internal/core"
	"sknn/internal/gateway"
	"sknn/internal/mpc"
)

// runServe is the production topology: tenants, each a sharded and
// replicated clustered System, behind one gateway over loopback TCP.
// One connection per tenant issues SkNNm queries back to back; halfway
// through, one replica of the first tenant is closed.
func runServe(rc runConfig) (*record, *tracer, error) {
	p := rc.p
	rec := newRecord(rc)
	keys, err := newKeyring(p.Tenants, p.KeyBits)
	if err != nil {
		return nil, nil, err
	}
	tables := make([][][]uint64, p.Tenants)
	extras := make([][][]uint64, p.Tenants)
	qs := make([][][]uint64, p.Tenants)
	for i := range tables {
		if tables[i], extras[i], err = genTable(p, p.tableSeed(rc.seed)+int64(i), p.ProbePairs); err != nil {
			return nil, nil, err
		}
		qs[i] = queryStream(p, rc.seed, i, 4096)
	}
	setup, rig, err := timedSetups(p.SetupReps, func(int) (*serveRig, error) {
		return newServeRig(p, keys, tables, nil)
	}, (*serveRig).close)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	live := func(a answer) [][][]uint64 { return [][][]uint64{tables[a.src]} }

	if !rc.trace {
		var s loadStats
		failovers, retries, err := rig.load(&s, qs, p.K, rc.seconds)
		rig.close()
		if err != nil {
			return nil, nil, err
		}
		s.verify(p.K, false, rc.corrupt, live)
		rec.check("serve_failover", failovers >= 1, "%d failovers, %d retried shard scans across the replica kill", failovers, retries)
		rec.EndToEnd = endToEnd(rec, rc, setup, &s)
		rec.finish(&s)
		return rec, nil, nil
	}

	// Traced run: the untraced pass above at half length, then a fresh
	// traced rig for the other half, each with its own replica kill.
	var us, ts loadStats
	_, _, err = rig.load(&us, qs, p.K, rc.seconds/2)
	rig.close()
	if err != nil {
		return nil, nil, err
	}
	us.verify(p.K, false, rc.corrupt, live)

	lay := newLayers()
	ksk, err := keys.fresh(0)
	if err != nil {
		return nil, nil, err
	}
	if err := lay.kernel(ksk, p.KernelReps); err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	trig, err := newServeRig(p, keys, tables, tr)
	if err != nil {
		return nil, nil, err
	}
	before := readCounters(trig.comm())
	failovers, retries, err := trig.load(&ts, qs, p.K, rc.seconds/2)
	after := readCounters(trig.comm())
	if err == nil {
		ts.probe(trig.tenants[0].sys, p.N, extras[0], p.ProbePairs, tr)
	}
	shed := 0
	for _, t := range trig.tenants {
		snap := trig.gw.Metrics().TenantSnapshot(t.name)
		shed += snap.ShedRate + snap.ShedQueue
	}
	trig.close()
	if err != nil {
		return nil, nil, err
	}
	ts.verify(p.K, false, rc.corrupt, live)
	rec.check("serve_failover", failovers >= 1, "%d failovers, %d retried shard scans across the replica kill", failovers, retries)

	var sms []*core.SecureMetrics
	for _, t := range trig.tenants {
		sms = append(sms, t.backend.metrics...)
	}
	lay.phases(sms)
	lay.deltas(before, after, len(ts.lat), len(ts.lat))
	lay.live(ts.mut)
	lay.put("replica.failovers", float64(failovers))
	lay.put("replica.retries", float64(retries))
	lay.put("gateway.shed", float64(shed))
	if n := float64(trig.traced.queries); n > 0 {
		lay.put("gateway.roundtrip_ms", ms(trig.traced.roundTrip)/n)
		lay.put("gateway.self_ms", ms(trig.traced.roundTrip-trig.traced.backend)/n)
		lay.put("client.total_ms", ms(trig.traced.query-trig.traced.roundTrip)/n)
	}
	lay.fill(rec)

	rec.EndToEnd = endToEnd(rec, rc, setup, &ts)
	rec.Untraced = us.queryMetrics(p.TailQ)
	rec.Overhead = overhead(ts.queryMetrics(p.TailQ), rec.Untraced)
	rec.Samples["untraced_latency"] = len(us.lat)
	rec.finish(&us, &ts)
	return rec, tr, nil
}

// serveTenant is one tenant's System and its gateway-side wiring.
type serveTenant struct {
	sys         *sknn.System
	name, token string
	client      *gateway.TenantClient
	gateConn    *tracedGateConn // nil when untraced
	backend     *tracedBackend  // nil when untraced

	// The query in progress on this tenant's connection.
	curSpan, curQuery atomic.Int64
}

// serveRig is the whole serve topology.
type serveRig struct {
	tenants  []*serveTenant
	gw       *gateway.Gateway
	ln       net.Listener
	handlers sync.WaitGroup
	tr       *tracer

	traced struct { // summed over traced queries
		mu                        sync.Mutex
		queries                   int
		query, roundTrip, backend time.Duration
	}
}

// newServeRig is the timed set-up: the tenants' Systems, the gateway
// and its listener, and one authenticated client connection per tenant.
func newServeRig(p params, keys *keyring, tables [][][]uint64, tr *tracer) (rig *serveRig, err error) {
	rig = &serveRig{gw: gateway.NewGateway(), tr: tr}
	defer func() {
		if err != nil {
			rig.close()
			rig = nil
		}
	}()
	for i, rows := range tables {
		sk, err := keys.fresh(i)
		if err != nil {
			return rig, err
		}
		sys, err := sknn.New(rows, p.AttrBits, sknn.Config{
			KeyBits: p.KeyBits, Workers: p.Workers, Key: sk,
			Index: sknn.IndexClustered, Shards: p.Shards, Replicas: p.Replicas,
		})
		if err != nil {
			return rig, fmt.Errorf("tenant %d: %w", i, err)
		}
		t := &serveTenant{sys: sys, name: fmt.Sprintf("tenant%d", i), token: fmt.Sprintf("token-%d-%x", i, sk.N.Bytes()[:8])}
		rig.tenants = append(rig.tenants, t)
		var be gateway.Backend = sys.GatewayBackend()
		if tr != nil {
			t.backend = &tracedBackend{Backend: be, tr: tr, parent: t.parent}
			be = t.backend
		}
		cfg := gateway.TenantConfig{
			Name: t.name, Token: t.token,
			DomainBits: sys.DomainBits(),
			Target:     core.CoverageTarget(sknn.DefaultCoverage, p.K),
		}
		if err := rig.gw.AddTenant(cfg, be); err != nil {
			return rig, err
		}
	}
	if rig.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return rig, err
	}
	rig.handlers.Add(1)
	go rig.accept()
	for _, t := range rig.tenants {
		nc, err := net.Dial("tcp", rig.ln.Addr().String())
		if err != nil {
			return rig, err
		}
		conn := mpc.WrapNet(nc)
		if tr != nil {
			t.gateConn = &tracedGateConn{Conn: conn, tr: tr, parent: t.parent}
			conn = t.gateConn
		}
		if t.client, err = gateway.DialTenant(conn, t.name, t.token); err != nil {
			return rig, fmt.Errorf("dial %s: %w", t.name, err)
		}
	}
	return rig, nil
}

func (t *serveTenant) parent() (int64, int64) { return t.curSpan.Load(), t.curQuery.Load() }

func (rig *serveRig) accept() {
	defer rig.handlers.Done()
	for {
		nc, err := rig.ln.Accept()
		if err != nil {
			return
		}
		rig.handlers.Add(1)
		go func() {
			defer rig.handlers.Done()
			// A session ends with an error only when its peer breaks
			// the protocol; the client side reports that as a failure.
			_ = rig.gw.HandleConn(mpc.WrapNet(nc))
		}()
	}
}

// close tears the rig down and waits for every goroutine it started.
func (rig *serveRig) close() {
	for _, t := range rig.tenants {
		if t.client != nil {
			t.client.Close()
		}
	}
	rig.gw.Close()
	if rig.ln != nil {
		rig.ln.Close()
	}
	rig.handlers.Wait()
	for _, t := range rig.tenants {
		t.sys.Close()
	}
}

func (rig *serveRig) comm() mpc.StatsSnapshot {
	var s mpc.StatsSnapshot
	for _, t := range rig.tenants {
		s = s.Add(t.sys.CommStats())
	}
	return s
}

// load runs one closed-loop client per tenant for d and closes replica
// 0 of the first tenant's shard 0 at d/2. It returns that tenant's
// failover and retry counts.
func (rig *serveRig) load(s *loadStats, qs [][][]uint64, k int, d time.Duration) (failovers, retries int, err error) {
	killed := make(chan error, 1)
	timer := time.AfterFunc(d/2, func() { killed <- rig.tenants[0].sys.CloseReplica(0, 0) })
	s.measure(func() time.Duration {
		return closedLoop(d, len(rig.tenants), func(c, i int) {
			t := rig.tenants[c]
			q := qs[c][i%len(qs[c])]
			qid := int64(c)<<32 | int64(i+1)
			root := rig.tr.id()
			t.curSpan.Store(root)
			t.curQuery.Store(qid)
			t0 := time.Now()
			rows, _, err := t.client.Query(context.Background(), q, k, true)
			t1 := time.Now()
			rig.tr.add(root, 0, qid, "query", t0, t1)
			if err != nil {
				s.fail(fmt.Errorf("%s: %w", t.name, err))
				return
			}
			if t.gateConn != nil {
				rig.traced.mu.Lock()
				rig.traced.queries++
				rig.traced.query += t1.Sub(t0)
				rig.traced.roundTrip += t.gateConn.lastRoundTrip()
				rig.traced.backend += t.backend.lastCall()
				rig.traced.mu.Unlock()
			}
			s.answered(answer{src: c, q: q, rows: rows, t0: t0, t1: t1}, t1.Sub(t0))
		})
	})
	if !timer.Stop() {
		if kerr := <-killed; kerr != nil {
			return 0, 0, fmt.Errorf("closing a replica: %w", kerr)
		}
	} else {
		return 0, 0, errors.New("the load ended before the replica kill")
	}
	for _, st := range rig.tenants[0].sys.ReplicaStats() {
		failovers += st.Failovers
		retries += st.Retries
	}
	return failovers, retries, nil
}
