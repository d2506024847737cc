package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sknn"
	"sknn/internal/core"
	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/smc"
)

// c2ServeInflight matches the facade's per-link C2 concurrency.
const c2ServeInflight = 4

// reconcileTol bounds the share of a query's wall time in which C2 is
// busy while no C1 request is waiting for it. The two are measured by
// separate wrappers, so a larger share means the trace lost or
// misattributed work.
const reconcileTol = 0.05

// runScan is the paper's setting: one unsharded System, full scan, one
// client issuing SkNNm queries back to back.
func runScan(rc runConfig) (*record, *tracer, error) {
	p := rc.p
	rec := newRecord(rc)
	rows, extra, err := genTable(p, p.tableSeed(rc.seed), p.ProbePairs)
	if err != nil {
		return nil, nil, err
	}
	keys, err := newKeyring(1, p.KeyBits)
	if err != nil {
		return nil, nil, err
	}
	setup, sys, err := timedSetups(p.SetupReps, func(int) (*sknn.System, error) {
		sk, err := keys.fresh(0)
		if err != nil {
			return nil, err
		}
		return sknn.New(rows, p.AttrBits, sknn.Config{KeyBits: p.KeyBits, Workers: p.Workers, Key: sk, Index: rc.index()})
	}, func(s *sknn.System) { s.Close() })
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	defer sys.Close()
	qs := queryStream(p, rc.seed, 0, 4096)
	static := func(answer) [][][]uint64 { return [][][]uint64{rows} }

	facade := func(s *loadStats, d time.Duration) {
		s.measure(func() time.Duration {
			return closedLoop(d, 1, func(_, i int) {
				q := qs[i%len(qs)]
				t0 := time.Now()
				res, err := sys.Query(context.Background(), q, sknn.WithK(p.K))
				t1 := time.Now()
				if err != nil {
					s.fail(err)
					return
				}
				s.answered(answer{q: q, rows: res.Rows, t0: t0, t1: t1}, t1.Sub(t0))
			})
		})
		s.verify(p.K, true, rc.corrupt, static)
	}

	if !rc.trace {
		var s loadStats
		facade(&s, rc.seconds)
		rec.EndToEnd = endToEnd(rec, rc, setup, &s)
		rec.finish(&s)
		return rec, nil, nil
	}

	// Traced run: the facade untraced, then the same topology composed
	// from public constructors, untraced and traced. The first two give
	// the facade/composed parity, the last two the tracing overhead.
	lay := newLayers()
	ksk, err := keys.fresh(0)
	if err != nil {
		return nil, nil, err
	}
	if err := lay.kernel(ksk, p.KernelReps); err != nil {
		return nil, nil, err
	}
	var fs, cs, ts loadStats
	facade(&fs, rc.seconds/4)

	plain, err := newComposed(keys, rows, p, nil)
	if err != nil {
		return nil, nil, err
	}
	plain.load(&cs, qs, p.K, rc.seconds/4, nil)
	plain.close()
	cs.verify(p.K, true, rc.corrupt, static)

	tr := newTracer()
	traced, err := newComposed(keys, rows, p, tr)
	if err != nil {
		return nil, nil, err
	}
	before := readCounters(traced.c1.CommStats())
	sms := traced.load(&ts, qs, p.K, rc.seconds/2, tr)
	after := readCounters(traced.c1.CommStats())
	traced.close()
	ts.verify(p.K, true, rc.corrupt, static)
	ts.probe(sys, p.N, extra, p.ProbePairs, tr)

	lay.phases(sms)
	lay.deltas(before, after, len(ts.lat), len(ts.lat))
	lay.live(ts.mut)
	scanSpans(rec, lay, tr.snapshot())
	lay.fill(rec)

	rec.EndToEnd = endToEnd(rec, rc, setup, &ts)
	rec.Untraced = cs.queryMetrics(p.TailQ)
	rec.Overhead = overhead(ts.queryMetrics(p.TailQ), rec.Untraced)
	fp50, cp50 := quantile(fs.lat, 0.5), quantile(cs.lat, 0.5)
	rec.Parity = map[string]float64{"facade_query_p50_s": fp50, "composed_query_p50_s": cp50}
	if fp50 > 0 {
		rec.Parity["drift"] = cp50/fp50 - 1
	}
	rec.Samples["facade_latency"] = len(fs.lat)
	rec.Samples["composed_untraced_latency"] = len(cs.lat)
	rec.finish(&fs, &cs, &ts)
	return rec, tr, nil
}

// composed is the scan topology built the way sknn.New assembles it,
// from the public constructors, so the C2 handlers and C1 links can be
// wrapped for tracing.
type composed struct {
	c1         *core.CloudC1
	client     *core.Client
	domainBits int
	serving    sync.WaitGroup

	// The query in progress, for attributing C1 waits.
	curSpan, curQuery atomic.Int64
}

func newComposed(keys *keyring, rows [][]uint64, p params, tr *tracer) (*composed, error) {
	sk, err := keys.fresh(0)
	if err != nil {
		return nil, err
	}
	table, err := core.EncryptTable(rand.Reader, &sk.PublicKey, rows)
	if err != nil {
		return nil, err
	}
	if err := sk.EnableFixedBase(rand.Reader); err != nil {
		return nil, err
	}
	c2 := core.NewCloudC2(sk, rand.Reader)
	cp := &composed{client: core.NewClient(&sk.PublicKey, rand.Reader), domainBits: dataset.DomainBits(p.AttrBits, p.M)}
	parent := func() (int64, int64) { return cp.curSpan.Load(), cp.curQuery.Load() }
	conns := make([]mpc.Conn, p.Workers)
	for i := range conns {
		c1Side, c2Side := mpc.ChanPipe()
		var h mpc.Handler = c2.Mux()
		if tr != nil {
			link := newTracedLink(tr, parent)
			h = link.c2Handler(h)
			c1Side = link.c1Conn(c1Side)
		}
		conns[i] = c1Side
		cp.serving.Add(1)
		go func() {
			defer cp.serving.Done()
			// nil on orderly shutdown; a protocol error surfaces to C1 as
			// a failed round trip, which the load counts.
			_ = mpc.ServeConcurrent(c2Side, h, c2ServeInflight)
		}()
	}
	cp.c1, err = core.NewCloudC1(table, conns, rand.Reader)
	if err != nil {
		for _, c := range conns {
			c.Close()
		}
		cp.serving.Wait()
		return nil, err
	}
	cp.c1.SetTuning(smc.Tuning{Packing: true})
	return cp, nil
}

func (cp *composed) close() {
	cp.c1.Close()
	cp.serving.Wait()
}

// load runs one client against the composed topology; with a tracer it
// records Bob's and C1's spans around each call.
func (cp *composed) load(s *loadStats, qs [][]uint64, k int, d time.Duration, tr *tracer) []*core.SecureMetrics {
	var sms []*core.SecureMetrics
	s.measure(func() time.Duration {
		return closedLoop(d, 1, func(_, i int) {
			q := qs[i%len(qs)]
			qid := int64(i + 1)
			root := tr.id()
			t0 := time.Now()
			var (
				eq   core.EncryptedQuery
				res  *core.MaskedResult
				sm   *core.SecureMetrics
				rows [][]uint64
				err  error
			)
			tr.time(root, qid, "client.encrypt", func() { eq, err = cp.client.EncryptQuery(q) })
			if err == nil {
				c1Span := tr.id()
				cp.curSpan.Store(c1Span)
				cp.curQuery.Store(qid)
				s1 := time.Now()
				res, sm, err = cp.c1.SecureQueryMetered(context.Background(), eq, k, cp.domainBits)
				tr.add(c1Span, root, qid, "c1.secure_query", s1, time.Now())
			}
			if err == nil {
				tr.time(root, qid, "client.unmask", func() { rows, err = cp.client.Unmask(res) })
			}
			t1 := time.Now()
			tr.add(root, 0, qid, "query", t0, t1)
			if err != nil {
				s.fail(err)
				return
			}
			sms = append(sms, sm)
			s.answered(answer{q: q, rows: rows, t0: t0, t1: t1}, t1.Sub(t0))
		})
	})
	return sms
}

// scanSpans derives the C1/C2 breakdown from the composed run's spans
// and checks that it reconciles with each query's wall time.
func scanSpans(rec *record, lay *layers, spans []span) {
	byQuery := map[int64][]span{}
	for _, s := range spans {
		if s.Query != 0 {
			byQuery[s.Query] = append(byQuery[s.Query], s)
		}
	}
	var (
		queries, unmatched      int
		self, wire, cover, wall int64
		bob, encrypt, unmask    float64
		worst                   float64
		calls                   = map[string]float64{}
		busy                    = map[string]int64{}
		wait                    = map[string]int64{}
	)
	for _, ss := range byQuery {
		var c1, root span
		var waits, c2 []interval
		for _, s := range ss {
			switch {
			case s.Name == "c1.secure_query":
				c1 = s
			case s.Name == "query":
				root = s
			case s.Name == "client.encrypt":
				encrypt += ms(s.dur())
			case s.Name == "client.unmask":
				unmask += ms(s.dur())
			case strings.HasPrefix(s.Name, "c1.wait."):
				waits = append(waits, interval{s.Start, s.End})
				wait[strings.TrimPrefix(s.Name, "c1.wait.")] += s.End - s.Start
			case strings.HasPrefix(s.Name, "c2."):
				c2 = append(c2, interval{s.Start, s.End})
				op := strings.TrimPrefix(s.Name, "c2.")
				calls[op]++
				busy[op] += s.End - s.Start
			}
		}
		if c1.ID == 0 || root.ID == 0 {
			continue
		}
		queries++
		if len(c2) != len(waits) {
			unmatched++
		}
		a := union(waits, c1.Start, c1.End)
		b := union(c2, c1.Start, c1.End)
		w := c1.End - c1.Start
		both := overlap(a, b)
		self += w - length(a)
		wire += length(a) - both
		cover += length(b)
		wall += w
		bob += ms(root.dur() - c1.dur())
		if w > 0 {
			if e := float64(length(b)-both) / float64(w); e > worst {
				worst = e
			}
		}
	}
	if queries == 0 {
		rec.check("scan_reconcile", false, "no traced query completed")
		return
	}
	n := float64(queries)
	nsMS := func(v int64) float64 { return float64(v) / 1e6 / n }
	lay.put("c1.self_ms", nsMS(self))
	lay.put("c1.wire_ms", nsMS(wire))
	if wall > 0 {
		lay.put("c2.busy_share", float64(cover)/float64(wall))
	}
	for op, c := range calls {
		lay.put("c2."+op+".calls", c/n)
		lay.put("c2."+op+".busy_ms", nsMS(busy[op]))
	}
	for op, v := range wait {
		lay.put("c1."+op+".wait_ms", nsMS(v))
	}
	lay.put("client.encrypt_ms", encrypt/n)
	lay.put("client.unmask_ms", unmask/n)
	lay.put("client.total_ms", bob/n)
	// c1.self + C2 busy (covered time) + wire = wall, exactly when C2 is
	// only ever busy while C1 waits on it. Every C1 wait must also have
	// met its C2 handler, or busy time went missing from the query. With
	// Workers=2 a query's handlers overlap, so the sum of per-op busy
	// times exceeds the covered time.
	var sumBusy int64
	for _, v := range busy {
		sumBusy += v
	}
	sum := self + cover + wire
	rec.check("scan_reconcile", worst <= reconcileTol && unmatched == 0,
		"c1.self %.1f + c2.busy %.1f (sum over ops %.1f) + wire %.1f = %.1f ms vs wall %.1f ms per query; worst query off by %.2f%% (tolerance %.0f%%); %d of %d queries with a C1 wait and C2 handler count mismatch",
		nsMS(self), nsMS(cover), nsMS(sumBusy), nsMS(wire), nsMS(sum), nsMS(wall), 100*worst, 100*reconcileTol, unmatched, queries)
}
