package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sknn"
	"sknn/internal/core"
)

// churnInserts bounds the seeded insert stream; the writer cycles
// through it if a run outlasts it.
const churnInserts = 4096

// runChurn puts a writer beside a reader on one clustered System: the
// reader issues SkNNm queries back to back while the writer inserts a
// seeded row and deletes the oldest live id, keeping n constant, so
// auto-compaction (re-cluster and centroid re-encryption) fires
// repeatedly during the load.
func runChurn(rc runConfig) (*record, *tracer, error) {
	p := rc.p
	rec := newRecord(rc)
	rows, extra, err := genTable(p, p.tableSeed(rc.seed), churnInserts)
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
	writer := newMutator(sys, p.N, extra, nil, nil)
	hist := &history{initial: rows}

	if !rc.trace {
		var s loadStats
		churnPass(sys, writer, &s, qs, p.K, rc.seconds, nil)
		hist.log = writer.log
		s.verify(p.K, false, rc.corrupt, hist.during)
		rec.check("churn_compaction", len(s.mut.compact) >= 1, "%d compactions in %d mutations", len(s.mut.compact), s.mut.calls)
		rec.EndToEnd = endToEnd(rec, rc, setup, &s)
		rec.finish(&s)
		return rec, nil, nil
	}

	// Traced run: an untraced pass, then a traced pass on the same
	// System, each half the length.
	lay := newLayers()
	ksk, err := keys.fresh(0)
	if err != nil {
		return nil, nil, err
	}
	if err := lay.kernel(ksk, p.KernelReps); err != nil {
		return nil, nil, err
	}
	var us, ts loadStats
	churnPass(sys, writer, &us, qs, p.K, rc.seconds/2, nil)
	tr := newTracer()
	before := readCounters(sys.CommStats())
	sms := churnPass(sys, writer, &ts, qs, p.K, rc.seconds/2, tr)
	after := readCounters(sys.CommStats())
	hist.log = writer.log
	us.verify(p.K, false, rc.corrupt, hist.during)
	ts.verify(p.K, false, rc.corrupt, hist.during)
	rec.check("churn_compaction", len(ts.mut.compact) >= 1, "%d compactions in %d traced mutations", len(ts.mut.compact), ts.mut.calls)

	lay.phases(sms)
	lay.deltas(before, after, len(ts.lat), len(ts.lat)+ts.mut.calls)
	lay.live(ts.mut)
	lay.fill(rec)

	rec.EndToEnd = endToEnd(rec, rc, setup, &ts)
	rec.Untraced = us.queryMetrics(p.TailQ)
	rec.Overhead = overhead(ts.queryMetrics(p.TailQ), rec.Untraced)
	rec.Samples["untraced_latency"] = len(us.lat)
	rec.finish(&us, &ts)
	return rec, tr, nil
}

// churnPass runs the reader for d with the writer beside it, and
// returns the protocol metrics of the reader's queries.
func churnPass(sys *sknn.System, w *mutator, s *loadStats, qs [][]uint64, k int, d time.Duration, tr *tracer) []*core.SecureMetrics {
	w.st, w.tr = &s.mut, tr
	stop := make(chan struct{})
	var done sync.WaitGroup
	var sms []*core.SecureMetrics
	s.measure(func() time.Duration {
		done.Add(1)
		go func() {
			defer done.Done()
			start := time.Now()
			for {
				select {
				case <-stop:
					s.mut.wall = time.Since(start)
					return
				default:
					w.pair()
				}
			}
		}()
		wall := closedLoop(d, 1, func(_, i int) {
			q := qs[i%len(qs)]
			var (
				res *sknn.Result
				err error
			)
			t0 := time.Now()
			tr.time(0, int64(i+1), "query", func() { res, err = sys.Query(context.Background(), q, sknn.WithK(k)) })
			t1 := time.Now()
			if err != nil {
				s.fail(err)
				return
			}
			if res.Metrics != nil && res.Metrics.Secure != nil {
				sms = append(sms, res.Metrics.Secure)
			}
			s.answered(answer{q: q, rows: res.Rows, t0: t0, t1: t1}, t1.Sub(t0))
		})
		close(stop)
		done.Wait()
		return wall
	})
	return sms
}

// history replays the writer's mutations to recover the table versions
// a query may have read. A query pins its table view when its session
// opens, and a mutation takes effect at some instant inside its call,
// so every version whose possible lifetime overlaps the query's
// interval is acceptable.
type history struct {
	initial [][]uint64 // ids 0..n-1
	log     []mutation
}

func (h *history) during(a answer) [][][]uint64 {
	ids := make([]uint64, len(h.initial))
	rowOf := make(map[uint64][]uint64, len(h.initial))
	for i, row := range h.initial {
		ids[i] = uint64(i)
		rowOf[uint64(i)] = row
	}
	snapshot := func() [][]uint64 {
		out := make([][]uint64, len(ids))
		for i, id := range ids {
			out[i] = rowOf[id]
		}
		return out
	}
	var out [][][]uint64
	// Version j follows mutation j-1 (version 0 is the initial table): it
	// can be live from the start of mutation j-1 to the end of mutation j.
	for j := 0; j <= len(h.log); j++ {
		if j > 0 {
			m := h.log[j-1]
			if m.start.After(a.t1) {
				break
			}
			if m.insert {
				ids = append(ids, m.id)
				rowOf[m.id] = m.row
			} else {
				for i, id := range ids {
					if id == m.id {
						ids = append(ids[:i], ids[i+1:]...)
						break
					}
				}
			}
		}
		if j < len(h.log) && h.log[j].end.Before(a.t0) {
			continue
		}
		out = append(out, snapshot())
	}
	return out
}
