package main

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	mrand "math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"sknn"
	"sknn/internal/dataset"
	"sknn/internal/paillier"
	"sknn/internal/plainknn"
)

// params sizes one workload. defaultParams is the benchmark; the
// self-test shrinks it.
type params struct {
	KeyBits   int  `json:"key_bits"`
	Workers   int  `json:"workers"`
	N         int  `json:"n"`
	M         int  `json:"m"`
	AttrBits  int  `json:"attr_bits"`
	K         int  `json:"k"`
	Centers   int  `json:"centers"`   // GenerateClustered blobs; 0 = uniform Generate
	Clustered bool `json:"clustered"` // IndexClustered at the default coverage
	Shards    int  `json:"shards"`
	Replicas  int  `json:"replicas"`
	Tenants   int  `json:"tenants"` // > 0: the serve topology behind the gateway
	Churn     bool `json:"churn"`   // a writer inserts and deletes beside the reader
	SetupReps int  `json:"setup_reps"`
	// TableSeed, when non-zero, fixes the tables instead of deriving
	// them from --seed. The clustered index makes query cost depend on
	// the table's cluster layout, so a seeded table moves a clustered
	// workload's throughput by more than any bound a run could hold;
	// with a fixed table --seed still draws the queries, keys and
	// inserted rows.
	TableSeed int64 `json:"table_seed"`
	// TailQ is the latency percentile reported as query_tail_s: the
	// highest percentile that keeps ≥10 samples beyond it at the query
	// rate this workload reaches in a 45 s run (see README.md). It is
	// fixed per workload, not chosen per run, so two runs always report
	// the same percentile.
	TailQ float64 `json:"tail_percentile"`
	// ProbePairs is how many Insert+Delete pairs follow the traced load
	// on workloads without a writer, for the live-table layer metrics.
	ProbePairs int `json:"probe_pairs"`
	KernelReps int `json:"kernel_reps"`
}

var defaultParams = map[string]params{
	"scan": {KeyBits: 1024, Workers: 2, N: 32, M: 4, AttrBits: 6, K: 3,
		SetupReps: 5, TailQ: 0.5, ProbePairs: 100, KernelReps: 40},
	"serve": {KeyBits: 512, Workers: 2, N: 128, M: 4, AttrBits: 6, K: 3,
		Centers: 8, Clustered: true, Shards: 2, Replicas: 2, Tenants: 2,
		TableSeed: 1, SetupReps: 5, TailQ: 0.75, ProbePairs: 24, KernelReps: 100},
	"churn": {KeyBits: 512, Workers: 2, N: 96, M: 4, AttrBits: 6, K: 3,
		Centers: 8, Clustered: true, Churn: true,
		SetupReps: 5, TailQ: 0.5, KernelReps: 100},
}

type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	p        params
	commit   string
	// corrupt, when set, damages every result before the oracle sees
	// it; the self-test uses it to prove wrong answers count as failed.
	corrupt func(rows [][]uint64)
}

func (p params) tableSeed(seed int64) int64 {
	if p.TableSeed != 0 {
		return p.TableSeed
	}
	return seed
}

func (rc runConfig) index() sknn.IndexMode {
	if rc.p.Clustered {
		return sknn.IndexClustered
	}
	return sknn.IndexNone
}

// metric is one reported number; metricSet is keyed by metric name.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// check is a named pass/fail condition a run verifies about itself.
type check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// record is everything one run produced; main prints its summary line
// and saves the whole record.
type record struct {
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Seconds    float64    `json:"seconds"`
	Trace      bool       `json:"trace"`
	Provenance provenance `json:"provenance"`
	Params     params     `json:"params"`
	Attempted  int        `json:"attempted"`
	Failed     int        `json:"failed"`
	ErrorRate  float64    `json:"error_rate"`
	Correct    bool       `json:"correct"`
	Checks     []check    `json:"checks"`
	// Samples is the number of measurements behind each timing.
	Samples  map[string]int `json:"samples"`
	EndToEnd metricSet      `json:"end_to_end"`
	// The raw timings behind the end-to-end medians, in seconds.
	Setups          []float64 `json:"setup_s"`
	QueryLatencies  []float64 `json:"query_latency_s"`
	InsertLatencies []float64 `json:"insert_latency_s"`
	// Traced runs only: the per-layer breakdown, the end-to-end numbers
	// of the untraced pass that preceded the traced one, and the
	// relative change tracing caused in each (traced/untraced − 1).
	PerLayer      metricSet          `json:"per_layer,omitempty"`
	ExtraLayer    metricSet          `json:"per_layer_extra,omitempty"`
	Untraced      metricSet          `json:"untraced,omitempty"`
	Overhead      map[string]float64 `json:"tracing_overhead,omitempty"`
	Parity        map[string]float64 `json:"parity,omitempty"`
	NotApplicable []string           `json:"not_applicable,omitempty"`
	SpansFile     string             `json:"spans_file,omitempty"`
	Errors        []string           `json:"errors,omitempty"`
}

func newRecord(rc runConfig) *record {
	return &record{
		Workload:   rc.workload,
		Seed:       rc.seed,
		Seconds:    rc.seconds.Seconds(),
		Trace:      rc.trace,
		Provenance: newProvenance(rc),
		Params:     rc.p,
		Samples:    map[string]int{},
	}
}

func (r *record) check(name string, pass bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

// finish fills the error accounting and the correctness verdict.
func (r *record) finish(ls ...*loadStats) {
	for _, s := range ls {
		r.Attempted += s.attempted + s.mut.attempted
		r.Failed += s.failed + s.mut.failed
		for _, e := range append(s.errs, s.mut.errs...) {
			if len(r.Errors) < 10 {
				r.Errors = append(r.Errors, e)
			}
		}
	}
	if r.Attempted > 0 {
		r.ErrorRate = float64(r.Failed) / float64(r.Attempted)
	}
	r.Correct = r.Attempted > 0 && r.Failed == 0
	for _, c := range r.Checks {
		r.Correct = r.Correct && c.Pass
	}
}

// answer is one completed query, kept for the oracle check after the
// load ends so checking never competes with the measured work.
type answer struct {
	src    int // which tenant's table answered
	q      []uint64
	rows   [][]uint64
	t0, t1 time.Time
}

// loadStats accumulates one measured pass of a workload.
type loadStats struct {
	mu        sync.Mutex
	answers   []answer
	lat       []time.Duration // per answered query, as Bob sees it
	attempted int             // queries and mutations issued
	failed    int             // errored, refused or wrong
	errs      []string
	ok        int // queries that passed the oracle check
	recall    float64
	wall      time.Duration
	cpu       time.Duration
	mut       mutStats
}

func (s *loadStats) answered(a answer, lat time.Duration) {
	s.mu.Lock()
	s.attempted++
	s.answers = append(s.answers, a)
	s.lat = append(s.lat, lat)
	s.mu.Unlock()
}

func (s *loadStats) fail(err error) {
	s.mu.Lock()
	s.attempted++
	s.failed++
	s.errs = append(s.errs, err.Error())
	s.mu.Unlock()
}

// verify runs the oracle over every answer. live returns the table
// versions an answer may have been computed against; exact demands
// every one of the k distances (the full scan), otherwise a missed
// distance lowers recall but is not a failure (the clustered index
// trades recall for pruning by design).
func (s *loadStats) verify(k int, exact bool, corrupt func([][]uint64), live func(a answer) [][][]uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.answers {
		if corrupt != nil {
			corrupt(a.rows)
		}
		best := -1.0
		for _, rows := range live(a) {
			if r, ok := score(rows, a, k); ok && r > best {
				best = r
			}
		}
		if best < 0 || (exact && best < 1) {
			s.failed++
			s.errs = append(s.errs, fmt.Sprintf("%v: query %v answered %v", errWrong, a.q, a.rows))
			if best > 0 {
				s.recall += best
			}
			continue
		}
		s.ok++
		s.recall += best
	}
}

// score checks that the answer's rows are k distinct records of table
// and returns the fraction of the oracle's k distances they reproduce.
func score(table [][]uint64, a answer, k int) (float64, bool) {
	if len(a.rows) != k {
		return 0, false
	}
	have := make(map[string]int, len(table))
	for _, row := range table {
		have[rowKey(row)]++
	}
	for _, row := range a.rows {
		key := rowKey(row)
		if have[key] == 0 {
			return 0, false
		}
		have[key]--
	}
	want, err := plainknn.KDistances(table, a.q, k)
	if err != nil {
		return 0, false
	}
	got := make([]uint64, len(a.rows))
	for i, row := range a.rows {
		d, err := plainknn.SquaredDistance(row, a.q)
		if err != nil {
			return 0, false
		}
		got[i] = d
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	// Multiset intersection of two sorted distance lists.
	n, i, j := 0, 0, 0
	for i < len(got) && j < len(want) {
		switch {
		case got[i] == want[j]:
			n++
			i++
			j++
		case got[i] < want[j]:
			i++
		default:
			j++
		}
	}
	return float64(n) / float64(k), true
}

func rowKey(row []uint64) string {
	b := make([]byte, 8*len(row))
	for i, v := range row {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	return string(b)
}

// mutStats accumulates Insert and Delete calls.
type mutStats struct {
	insert    []time.Duration
	delete    []time.Duration // calls that did not compact
	compact   []time.Duration // calls (either kind) that compacted
	calls     int             // completed calls
	attempted int
	failed    int
	errs      []string
	wall      time.Duration
}

// mutation is one completed Insert or Delete, for the churn oracle.
type mutation struct {
	start, end time.Time
	insert     bool
	id         uint64
	row        []uint64
}

// mutator issues Insert-then-Delete-oldest pairs, so n stays constant.
// One goroutine drives it; its stats are read after that goroutine ends.
type mutator struct {
	sys  *sknn.System
	live []uint64 // live ids, oldest first
	rows [][]uint64
	next int
	st   *mutStats
	tr   *tracer    // nil when untraced
	log  []mutation // every completed call, for the churn oracle
}

func newMutator(sys *sknn.System, n int, rows [][]uint64, st *mutStats, tr *tracer) *mutator {
	live := make([]uint64, n)
	for i := range live {
		live[i] = uint64(i)
	}
	return &mutator{sys: sys, live: live, rows: rows, st: st, tr: tr}
}

// pair inserts the next seeded row, then deletes the oldest live id.
// A failed call is counted and the pair abandoned.
func (m *mutator) pair() {
	row := m.rows[m.next%len(m.rows)]
	m.next++
	var id uint64
	if !m.call(true, func() (err error) { id, err = m.sys.Insert(row); return err }, &id, row) {
		return
	}
	m.live = append(m.live, id)
	oldest := m.live[0]
	m.live = m.live[1:]
	m.call(false, func() error { return m.sys.Delete(oldest) }, &oldest, nil)
}

// call times one mutation; it counts as a compaction when the table's
// dirty fraction falls across it.
func (m *mutator) call(insert bool, fn func() error, id *uint64, row []uint64) bool {
	name := "live.delete"
	if insert {
		name = "live.insert"
	}
	before := m.sys.DirtyFraction()
	var err error
	start := time.Now()
	_, d := m.tr.time(0, 0, name, func() { err = fn() })
	m.st.attempted++
	if err != nil {
		m.st.failed++
		m.st.errs = append(m.st.errs, fmt.Sprintf("%s: %v", name, err))
		return false
	}
	m.st.calls++
	m.log = append(m.log, mutation{start: start, end: start.Add(d), insert: insert, id: *id, row: row})
	switch {
	case m.sys.DirtyFraction() < before:
		m.st.compact = append(m.st.compact, d)
	case !insert:
		m.st.delete = append(m.st.delete, d)
	}
	if insert {
		m.st.insert = append(m.st.insert, d)
	}
	return true
}

// probe runs the mutation pairs that follow the load on workloads
// without a writer, into s.mut.
func (s *loadStats) probe(sys *sknn.System, n int, rows [][]uint64, pairs int, tr *tracer) {
	m := newMutator(sys, n, rows, &s.mut, tr)
	// Start from a collected heap, so the garbage of the query load
	// before it does not land in the probe's timings.
	runtime.GC()
	start := time.Now()
	for i := 0; i < pairs; i++ {
		m.pair()
	}
	s.mut.wall = time.Since(start)
}

// closedLoop runs clients that each issue their next operation as soon
// as the previous one returns, until d has passed. It returns the wall
// time until the last operation finished.
func closedLoop(d time.Duration, clients int, op func(client, i int)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Since(start) < d; i++ {
				op(c, i)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measure runs load and fills the pass's wall and CPU time.
func (s *loadStats) measure(load func() time.Duration) {
	c0 := cpuTime()
	s.wall = load()
	s.cpu = cpuTime() - c0
}

// quantile is the nearest-rank q-quantile of ds, in seconds.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i].Seconds()
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// endToEnd derives the end-to-end metrics of one verified pass. The
// mutation metrics exist only where the pass mutated the table.
func endToEnd(rec *record, rc runConfig, setup []float64, s *loadStats) metricSet {
	m := s.queryMetrics(rc.p.TailQ)
	m.set("setup_s", "s", median(setup))
	m.set("rss_peak_mb", "MB", peakRSSMB())
	mut := s.mut
	if mut.calls > 0 {
		m.set("insert_p50_ms", "ms", quantile(mut.insert, 0.5)*1e3)
		m.set("mutations_per_s", "1/s", float64(mut.calls)/mut.wall.Seconds())
	}
	rec.Samples["setup_s"] = len(setup)
	rec.Setups = setup
	rec.QueryLatencies = seconds(s.lat)
	rec.InsertLatencies = seconds(mut.insert)
	rec.Samples["query_latency"] = len(s.lat)
	rec.Samples["insert_latency"] = len(mut.insert)
	rec.Samples["mutations"] = mut.calls
	return m
}

// queryMetrics are the end-to-end metrics one pass determines alone.
func (s *loadStats) queryMetrics(tailQ float64) metricSet {
	m := metricSet{}
	m.set("query_p50_s", "s", quantile(s.lat, 0.5))
	m.set("query_tail_s", "s", quantile(s.lat, tailQ))
	m.set("qps", "1/s", float64(s.ok)/s.wall.Seconds())
	recall := 0.0
	if n := len(s.answers); n > 0 {
		recall = s.recall / float64(n)
	}
	m.set("recall", "ratio", recall)
	success := 0.0
	if n := s.attempted + s.mut.attempted; n > 0 {
		success = 1 - float64(s.failed+s.mut.failed)/float64(n)
	}
	m.set("success_rate", "ratio", success)
	cpuPer := 0.0
	if s.ok > 0 {
		cpuPer = s.cpu.Seconds() / float64(s.ok)
	}
	m.set("cpu_s_per_query", "s", cpuPer)
	return m
}

// overhead is the relative change of each traced metric against the
// untraced pass (traced/untraced − 1).
func overhead(traced, untraced metricSet) map[string]float64 {
	out := map[string]float64{}
	for name, u := range untraced {
		if t, ok := traced[name]; ok && u.Value != 0 {
			out[name] = t.Value/u.Value - 1
		}
	}
	return out
}

// keyring generates the workload's keys once, before any timing, and
// hands out fresh copies: New builds fixed-base tables on the key it is
// given and skips the work when they exist, so every timed set-up needs
// a key that has never been used.
type keyring struct{ blobs [][]byte }

func newKeyring(n, bits int) (*keyring, error) {
	kr := &keyring{}
	for i := 0; i < n; i++ {
		sk, err := paillier.GenerateKey(rand.Reader, bits)
		if err != nil {
			return nil, fmt.Errorf("generating key: %w", err)
		}
		b, err := sk.MarshalBinary()
		if err != nil {
			return nil, err
		}
		kr.blobs = append(kr.blobs, b)
	}
	return kr, nil
}

func (kr *keyring) fresh(i int) (*paillier.PrivateKey, error) {
	sk := new(paillier.PrivateKey)
	if err := sk.UnmarshalBinary(kr.blobs[i]); err != nil {
		return nil, err
	}
	return sk, nil
}

// genTable makes the workload's table plus extra rows from the same
// distribution for inserts: with one seed, GenerateClustered draws the
// blob centres first, so the first n rows are the table and the rest
// follow the same blobs.
func genTable(p params, seed int64, extra int) ([][]uint64, [][]uint64, error) {
	var (
		t   *dataset.Table
		err error
	)
	if p.Centers > 0 {
		t, err = dataset.GenerateClustered(seed, p.N+extra, p.M, p.AttrBits, p.Centers)
	} else {
		t, err = dataset.Generate(seed, p.N+extra, p.M, p.AttrBits)
	}
	if err != nil {
		return nil, nil, err
	}
	return t.Rows[:p.N], t.Rows[p.N:], nil
}

// queryStream returns client c's seeded query sequence.
func queryStream(p params, seed int64, c, count int) [][]uint64 {
	rng := mrand.New(mrand.NewSource(seed*7919 + int64(c) + 1))
	limit := int64(1) << p.AttrBits
	qs := make([][]uint64, count)
	for i := range qs {
		q := make([]uint64, p.M)
		for j := range q {
			q[j] = uint64(rng.Int63n(limit))
		}
		qs[i] = q
	}
	return qs
}

// timedSetups builds the system reps times and reports each build's
// wall time; every build but the last is torn down.
func timedSetups[T any](reps int, build func(rep int) (T, error), teardown func(T)) ([]float64, T, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < reps; i++ {
		start := time.Now()
		sys, err := build(i)
		if err != nil {
			return nil, last, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < reps-1 {
			teardown(sys)
		} else {
			last = sys
		}
	}
	return times, last, nil
}
