package main

import (
	"runtime"
	"sort"
	"strings"
	"time"

	"sknn/internal/core"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// c2Ops are the C2 request kinds an SkNNm query with packing on sends;
// each gets calls, busy and wait metrics. Other kinds seen in a run are
// kept in the record's extra per-layer metrics.
var c2Ops = []string{"ssed_pack", "sbd_pack_bit", "sm_pack", "smin_batch", "min_select", "reveal"}

// perLayerUnits lists every per-layer metric and its unit. Values are
// per query unless the name says otherwise.
func perLayerUnits() map[string]string {
	u := map[string]string{
		"paillier.encrypt_us":        "us",
		"paillier.decrypt_us":        "us",
		"paillier.scalarmul_us":      "us",
		"paillier.encrypts_per_op":   "count",
		"c1.self_ms":                 "ms",
		"c1.wire_ms":                 "ms",
		"c2.busy_share":              "ratio",
		"phase.centroid_ms":          "ms",
		"phase.distance_ms":          "ms",
		"phase.sminn_ms":             "ms",
		"phase.select_ms":            "ms",
		"phase.extract_ms":           "ms",
		"phase.exclude_ms":           "ms",
		"phase.reveal_ms":            "ms",
		"scan.candidates":            "count",
		"scan.smin_count":            "count",
		"scan.clusters_probed":       "count",
		"coord.scatter_ms":           "ms",
		"coord.merge_ms":             "ms",
		"replica.failovers":          "count",
		"replica.retries":            "count",
		"gateway.roundtrip_ms":       "ms",
		"gateway.self_ms":            "ms",
		"gateway.shed":               "count",
		"client.encrypt_ms":          "ms",
		"client.unmask_ms":           "ms",
		"client.total_ms":            "ms",
		"live.delete_ms":             "ms",
		"live.compactions":           "count",
		"live.compact_ms":            "ms",
		"mpc.rounds_per_query":       "count",
		"mpc.frames_per_query":       "count",
		"mpc.bytes_per_query":        "bytes",
		"runtime.alloc_mb_per_query": "MB",
		"runtime.gc_per_query":       "count",
	}
	for _, op := range c2Ops {
		u["c2."+op+".calls"] = "count"
		u["c2."+op+".busy_ms"] = "ms"
		u["c1."+op+".wait_ms"] = "ms"
	}
	return u
}

// layers collects one traced run's per-layer metrics. Every metric is
// reported; one a workload never sets stays 0 and is listed as not
// applicable (the workload bypasses that layer or cannot see it).
type layers struct {
	units map[string]string
	set   map[string]float64
	extra metricSet
}

func newLayers() *layers {
	return &layers{units: perLayerUnits(), set: map[string]float64{}, extra: metricSet{}}
}

func (l *layers) put(name string, v float64) {
	if _, ok := l.units[name]; ok {
		l.set[name] = v
		return
	}
	unit := "ms"
	if strings.HasSuffix(name, ".calls") {
		unit = "count"
	}
	l.extra.set(name, unit, v)
}

// fill stores the metrics and the not-applicable list in rec.
func (l *layers) fill(rec *record) {
	rec.PerLayer = metricSet{}
	for name, unit := range l.units {
		v, ok := l.set[name]
		if !ok {
			rec.NotApplicable = append(rec.NotApplicable, name)
		}
		rec.PerLayer.set(name, unit, v)
	}
	sort.Strings(rec.NotApplicable)
	if len(l.extra) > 0 {
		rec.ExtraLayer = l.extra
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// phases averages the protocol's own phase breakdown over queries.
func (l *layers) phases(sms []*core.SecureMetrics) {
	if len(sms) == 0 {
		return
	}
	var sum core.SecureMetrics
	for _, m := range sms {
		sum.Centroid += m.Centroid
		sum.Distance += m.Distance
		sum.SMINn += m.SMINn
		sum.Select += m.Select
		sum.Extract += m.Extract
		sum.Exclude += m.Exclude
		sum.Reveal += m.Reveal
		sum.Scatter += m.Scatter
		sum.Merge += m.Merge
		sum.SMINCount += m.SMINCount
		sum.Candidates += m.Candidates
		sum.ClustersProbed += m.ClustersProbed
	}
	n := float64(len(sms))
	l.put("phase.centroid_ms", ms(sum.Centroid)/n)
	l.put("phase.distance_ms", ms(sum.Distance)/n)
	l.put("phase.sminn_ms", ms(sum.SMINn)/n)
	l.put("phase.select_ms", ms(sum.Select)/n)
	l.put("phase.extract_ms", ms(sum.Extract)/n)
	l.put("phase.exclude_ms", ms(sum.Exclude)/n)
	l.put("phase.reveal_ms", ms(sum.Reveal)/n)
	l.put("scan.candidates", float64(sum.Candidates)/n)
	l.put("scan.smin_count", float64(sum.SMINCount)/n)
	l.put("scan.clusters_probed", float64(sum.ClustersProbed)/n)
	if sum.Scatter > 0 || sum.Merge > 0 {
		l.put("coord.scatter_ms", ms(sum.Scatter)/n)
		l.put("coord.merge_ms", ms(sum.Merge)/n)
	}
}

// counters snapshots the program's exported counters around a traced pass.
type counters struct {
	mem      runtime.MemStats
	comm     mpc.StatsSnapshot
	encrypts uint64
}

func readCounters(comm mpc.StatsSnapshot) counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	c.comm = comm
	c.encrypts = paillier.EncryptCalls()
	return c
}

// deltas stores the per-query change of the exported counters; Paillier
// encryptions are divided over all completed operations (ops).
func (l *layers) deltas(before, after counters, queries, ops int) {
	if queries == 0 {
		return
	}
	n := float64(queries)
	d := after.comm.Sub(before.comm)
	l.put("mpc.rounds_per_query", float64(d.Rounds)/n)
	l.put("mpc.frames_per_query", float64(d.MessagesSent+d.MessagesReceived)/n)
	l.put("mpc.bytes_per_query", float64(d.BytesSent+d.BytesReceived)/n)
	l.put("runtime.alloc_mb_per_query", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/(1<<20)/n)
	l.put("runtime.gc_per_query", float64(after.mem.NumGC-before.mem.NumGC)/n)
	l.put("paillier.encrypts_per_op", float64(after.encrypts-before.encrypts)/float64(ops))
}

// live stores the mutation-path metrics.
func (l *layers) live(st mutStats) {
	if st.calls == 0 {
		return
	}
	l.put("live.delete_ms", meanMS(st.delete))
	l.put("live.compactions", 100*float64(len(st.compact))/float64(st.calls))
	l.put("live.compact_ms", meanMS(st.compact))
}

func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ms(sum) / float64(len(ds))
}

// kernel runs the Paillier kernel pass on a workload key.
func (l *layers) kernel(sk *paillier.PrivateKey, reps int) error {
	k, err := kernelPass(sk, reps)
	if err != nil {
		return err
	}
	for name, v := range k {
		l.put(name, v)
	}
	return nil
}
