package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// tiny shrinks a workload so the self-test runs it in seconds: 256-bit
// keys, n = 16, one set-up.
func tiny(workload string, trace bool) runConfig {
	p := defaultParams[workload]
	p.KeyBits = 256
	p.N = 16
	p.SetupReps = 1
	p.KernelReps = 4
	if p.ProbePairs > 0 {
		p.ProbePairs = 3
	}
	seconds := 2 * time.Second
	if p.Tenants > 0 {
		// Long enough for queries to pick the killed replica after the
		// midpoint even under the race detector.
		seconds = 6 * time.Second
	}
	return runConfig{workload: workload, seed: 7, seconds: seconds, trace: trace, p: p}
}

type declared struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// churnOnly are the end-to-end metrics only the churn workload, which
// BENCHMARK.json does not list, reports.
var churnOnly = []struct{ Name, Unit string }{{"insert_p50_ms", "ms"}, {"mutations_per_s", "1/s"}}

// TestEveryWorkloadEmitsEveryMetric runs each workload untraced and
// traced and checks the output against BENCHMARK.json.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	d := readDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		if _, ok := defaultParams[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := []string{"scan", "serve"}; len(names) != len(want) || names[0] != want[0] || names[1] != want[1] {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	for _, w := range []string{"scan", "serve", "churn"} {
		for _, trace := range []bool{false, true} {
			rec, _, err := run(tiny(w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !rec.Correct {
				t.Errorf("%s trace=%v: not correct: checks %+v errors %v", w, trace, rec.Checks, rec.Errors)
			}
			got, list := rec.EndToEnd, d.EndToEnd
			if trace {
				got, list = rec.PerLayer, d.PerLayer
			} else if w == "churn" {
				list = append(list, churnOnly...)
			}
			if len(got) != len(list) {
				t.Errorf("%s trace=%v: emitted %d metrics, want %d", w, trace, len(got), len(list))
			}
			for _, m := range list {
				g, ok := got[m.Name]
				if !ok || g.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, m.Name, g, m.Unit)
				}
			}
		}
	}
}

// TestCorruptedResultCountsAsFailed damages every answer with a value
// outside the attribute domain, which no table row can hold.
func TestCorruptedResultCountsAsFailed(t *testing.T) {
	for _, w := range []string{"scan", "churn"} {
		rc := tiny(w, false)
		rc.corrupt = func(rows [][]uint64) { rows[0][0] = 1 << 40 }
		rec, _, err := run(rc)
		if err != nil {
			t.Fatal(err)
		}
		queries := rec.Samples["query_latency"]
		if queries == 0 || rec.Failed < queries || rec.Correct {
			t.Errorf("%s: %d queries answered, %d failed, correct=%v; want every query failed", w, queries, rec.Failed, rec.Correct)
		}
	}
}

// TestServeReplicaKill checks the serve fault: the replica kill must
// cause a failover and no failed query.
func TestServeReplicaKill(t *testing.T) {
	rec, _, err := run(tiny("serve", false))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed != 0 {
		t.Errorf("%d failed operations: %v", rec.Failed, rec.Errors)
	}
	for _, c := range rec.Checks {
		if c.Name == "serve_failover" && !c.Pass {
			t.Errorf("no failover: %s", c.Detail)
		}
	}
}

// TestHistoryAcceptsOverlappingVersions pins the churn oracle's rule: a
// query may have read any version whose lifetime overlaps its interval.
func TestHistoryAcceptsOverlappingVersions(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	h := &history{
		initial: [][]uint64{{1}, {2}},
		log: []mutation{
			{start: at(10), end: at(20), insert: true, id: 2, row: []uint64{3}}, // version 1
			{start: at(30), end: at(40), id: 0},                                 // version 2
			{start: at(50), end: at(60), insert: true, id: 3, row: []uint64{4}}, // version 3
		},
	}
	for _, tc := range []struct {
		from, to int
		want     int
	}{
		{0, 5, 1},    // before any mutation: the initial table only
		{0, 15, 2},   // reaches into the first insert
		{25, 35, 2},  // versions 1 and 2; version 0 ended by 20 at the latest
		{42, 45, 1},  // between mutations: version 2 only
		{65, 90, 1},  // after the last mutation: version 3 only
		{-1, 100, 4}, // the whole history
	} {
		got := h.during(answer{t0: at(tc.from), t1: at(tc.to)})
		if len(got) != tc.want {
			t.Errorf("[%d,%d]: %d versions, want %d", tc.from, tc.to, len(got), tc.want)
		}
	}
}
