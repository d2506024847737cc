package sknn

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"

	"sknn/internal/cluster"
	"sknn/internal/core"
	"sknn/internal/dataset"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/smc"
)

// Mode selects which of the paper's two protocols answers a query.
type Mode int

const (
	// ModeBasic runs SkNNb (Algorithm 5): fast, but leaks distances to
	// C2 and access patterns to both clouds.
	ModeBasic Mode = iota
	// ModeSecure runs SkNNm (Algorithm 6): full confidentiality and
	// access-pattern hiding.
	ModeSecure
)

func (m Mode) String() string {
	switch m {
	case ModeBasic:
		return "SkNNb"
	case ModeSecure:
		return "SkNNm"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// IndexMode selects how SkNNm scans the table.
type IndexMode int

const (
	// IndexNone is the paper-faithful full scan: every query ranks all n
	// records, so nothing about the data distribution leaks — the
	// default.
	IndexNone IndexMode = iota
	// IndexClustered prunes with a clustered secure index: the data
	// owner k-means-partitions the rows at outsourcing time
	// (internal/cluster), the centroids ride along encrypted, and each
	// SkNNm query first obliviously ranks the centroids, then runs the
	// per-record protocol over only the nearest clusters' records. Cost
	// becomes proportional to the candidate set instead of n, in
	// exchange for a documented leak: C1 learns which clusters (never
	// which records) each query touches — the SVD-style access-pattern
	// relaxation (Yao, Li, Xiao, ICDE 2013). Results are exact whenever
	// the true k neighbors live in the probed clusters; Config.Coverage
	// sizes the candidate pool to make that hold on clusterable data.
	IndexClustered
)

func (m IndexMode) String() string {
	switch m {
	case IndexNone:
		return "none"
	case IndexClustered:
		return "clustered"
	default:
		return fmt.Sprintf("IndexMode(%d)", int(m))
	}
}

// DefaultCoverage is the default candidate-pool sizing factor for
// IndexClustered: a query's probed clusters must together hold at least
// max(k, DefaultCoverage·k) records.
const DefaultCoverage = 4.0

// Metric aliases so facade users can consume phase breakdowns without
// importing internal packages.
type (
	// BasicMetrics is the phase breakdown of one SkNNb query.
	BasicMetrics = core.BasicMetrics
	// SecureMetrics is the phase breakdown of one SkNNm query (and, on
	// a sharded system, the coordinator's aggregate for either mode).
	SecureMetrics = core.SecureMetrics
)

// QueryMetrics is the per-query phase breakdown attached to every
// Result (unless the query ran WithoutMetrics). Basic is set for
// ModeBasic queries, Secure for ModeSecure; on a sharded system Secure
// is additionally set for ModeBasic, carrying the coordinator's
// aggregate (scatter/merge split, summed shard counters, merge
// traffic).
type QueryMetrics struct {
	Basic  *BasicMetrics
	Secure *SecureMetrics
}

// c2ServeInflight is how many interleaved requests each C2 serve loop
// handles at once when query sessions share a link.
const c2ServeInflight = 4

// Config tunes System construction.
type Config struct {
	// KeyBits is the Paillier modulus size; the paper evaluates 512 and
	// 1024. Default 512.
	KeyBits int
	// Workers is the number of parallel C1↔C2 connections per link pool
	// (the paper's Section 5.3 parallelization). Unsharded, this is the
	// single pool all queries share; sharded, every shard worker gets
	// its own pool of this width and the coordinator another for the
	// merge phase. Default 1 (serial).
	Workers int
	// PerQueryWorkers caps how many pooled connections a single query
	// may span. 0 (the default) lets the scheduler decide: a query
	// arriving on an idle system spans every connection (lowest
	// latency, the paper's parallel variant), while queries arriving
	// under concurrent load get an even share of the pool so throughput
	// scales with concurrency instead. Set to 1 to always favor
	// throughput, or to Workers to always favor latency. Applies to the
	// unsharded engine only: sharded queries open one auto-sized
	// session per shard pool (plus one on the coordinator's), so the
	// scheduler's load-based split governs them throughout.
	PerQueryWorkers int
	// Shards splits the encrypted table into this many partitions, each
	// owned by an independent C1 shard worker with its own link pool to
	// C2, and plans every query as scatter (each shard runs the
	// existing pruned or full secure scan over its partition, producing
	// an encrypted shard-local top-k) then gather (a secure SMINn-based
	// merge over the s·k candidates yields the exact global top-k).
	// Records are partitioned by stable id mod Shards; mutations route
	// to the owning shard. 0 or 1 = unsharded. Requires Shards ≤ n.
	Shards int
	// Replicas runs every shard partition on R interchangeable workers
	// sharing one ciphertext table, each with its own link pool to C2.
	// The coordinator scatters each scan to the least-loaded live
	// replica and, when a replica dies mid-scan, requeues the scan on a
	// sibling — a dead replica costs one retried shard scan, never a
	// failed query (SecureMetrics.Failovers counts the requeues).
	// Replication is free at the data layer: replicas serve the same
	// Paillier ciphertexts, so R changes capacity and availability, not
	// the security argument. 0 or 1 = unreplicated. Replicas > 1 routes
	// through the scatter-gather coordinator even when Shards ≤ 1.
	Replicas int
	// Random overrides the randomness source (default crypto/rand).
	// Queries run concurrently, so the reader is shared across
	// goroutines; New wraps it in a mutex so any io.Reader is safe,
	// at the cost of serializing draws from it.
	Random io.Reader
	// Key reuses an existing Paillier key instead of generating one —
	// key generation dominates setup time, so benchmarks share keys.
	Key *paillier.PrivateKey
	// FeatureColumns restricts distance computation to the first f
	// attributes; trailing columns (class labels, identifiers) are
	// returned with results but never ranked on. 0 means all columns
	// are features. This is the layout secure kNN classification uses
	// (see examples/classifier).
	FeatureColumns int
	// UseNoncePool precomputes Paillier encryption nonces for C2 on
	// background goroutines (paillier.RandomizerPool), trading idle CPU
	// for much cheaper reply encryption. Off by default so benchmark
	// numbers reflect the paper's unassisted protocol cost.
	UseNoncePool bool
	// Index selects SkNNm's scan strategy: IndexNone (default, paper-
	// faithful full scan) or IndexClustered (partition-pruned; see the
	// IndexMode docs for the leakage tradeoff). ModeBasic ignores the
	// index — SkNNb already reveals access patterns, and its C2-side
	// rank step is not the bottleneck the index exists to cut.
	Index IndexMode
	// Clusters is the k-means cell count for IndexClustered. 0 picks
	// ⌈√n⌉ (cluster.DefaultClusters), which balances centroid ranking
	// against per-cluster scanning. On a sharded system the clustering
	// happens before the split, so each shard inherits its slice of the
	// global cells.
	Clusters int
	// Coverage sizes IndexClustered's candidate pool: clusters are
	// probed until they hold at least max(k, Coverage·k) records. 0
	// means DefaultCoverage. Larger values trade SMIN savings for
	// recall on badly clusterable (e.g. uniform) data. Sharded, the
	// floor applies per shard scan.
	Coverage float64
	// DisablePacking turns off the slot-packed protocol variants
	// (ciphertext packing in SSED/SBD/SM uplinks plus short statistical
	// blinds in SMIN) and runs the paper-faithful one-ciphertext-per-
	// value presentation instead. The zero value — packing ON — is the
	// production setting; the classic path exists as the differential
	// oracle and for ablation benchmarks (cmd/sknnbench -fig pack).
	DisablePacking bool
	// DisableFixedBase skips building the fixed-base exponentiation
	// tables that accelerate encryption-nonce generation (r^N = hN^a
	// with hN precomputed; CRT-split on C2). Zero value = tables ON.
	DisableFixedBase bool
	// CompactThreshold is the dirty-fraction bound of the live table:
	// when (tombstones + inserts since the last clean build) exceeds
	// this fraction of stored records, the next Insert or Delete
	// triggers Compact — physical tombstone removal plus, on a
	// clustered system, the owner-side re-cluster that refreshes the
	// centroids. On a sharded system the bound applies shard by shard:
	// compacting one shard never disturbs the others. 0 means
	// DefaultCompactThreshold; negative disables automatic compaction
	// (call Compact yourself).
	CompactThreshold float64
}

// DefaultCompactThreshold is the default dirty-fraction bound that
// triggers automatic Compact on a mutated table.
const DefaultCompactThreshold = 0.25

// ErrClosed is returned by queries on a closed System.
var ErrClosed = errors.New("sknn: system closed")

// lockedReader serializes a user-supplied randomness source shared by
// concurrent query sessions.
type lockedReader struct {
	mu sync.Mutex
	r  io.Reader
}

func (l *lockedReader) Read(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Read(p)
}

// System wires every party of the paper in one process: Alice encrypts
// and outsources, C1 and C2 form the federated cloud (connected by
// in-process pipes), and Bob issues queries. It is the quickstart
// entry point; distributed deployments compose the internal packages
// instead.
//
// A System is safe for concurrent use: any number of Query and
// QueryBatch calls may be in flight at once. Each query runs in its own
// session multiplexed over the Workers connections to C2, so concurrent
// queries share the pool instead of serializing behind a global lock.
// Every query takes a context.Context; canceling it aborts the query
// within one protocol round and releases its pooled links (see Query).
//
// With Config.Shards > 1 the table is partitioned across independent
// shard workers and every query runs scatter-gather: shard-local secure
// scans in parallel, then a secure merge at the coordinator. Results
// are exactly the unsharded results in both index modes.
type System struct {
	sk     *paillier.PrivateKey
	c1     *core.CloudC1   // unsharded engine (nil when sharded)
	coord  *core.ShardedC1 // sharded coordinator (nil when unsharded)
	shards []*core.CloudC1 // every shard worker behind coord, all replicas flat
	// shardGroups is the S×R replica topology behind coord: shardGroups[i]
	// holds shard i's replicas, which share one ciphertext table (a
	// replica is another worker over the same snapshot, so mutations and
	// compaction touch each shard's table exactly once, via any replica).
	shardGroups [][]*core.CloudC1
	replicas    int // replication factor R (1 = unreplicated)
	client      *core.Client
	random      io.Reader // shared, lock-wrapped randomness source
	domainBits  int
	attrBits    int // per-attribute domain, bounds Insert values
	m           int
	featureM    int // distance-relevant prefix; queries carry this many attributes
	perQuery    int
	index       IndexMode
	cfgClusters int     // requested cluster count (0 = ⌈√n⌉), reused by Compact rebuilds
	coverage    float64 // candidate-pool factor when index == IndexClustered
	compactAt   float64 // dirty-fraction bound; <0 disables auto-compact

	// writeMu serializes table mutations (Insert, Delete, Compact):
	// writers are rare next to queries, which stay fully concurrent on
	// their session views.
	writeMu sync.Mutex

	mu        sync.Mutex
	closed    bool
	deadRep   [][]bool       // guarded by mu; replicas taken down by CloseReplica
	closeDone chan struct{}  // closed when teardown has fully finished
	closeErr  error          // valid once closeDone is closed
	inflight  sync.WaitGroup // in-flight Query/QueryBatch/mutation calls
	serveWG   sync.WaitGroup
	pool      *paillier.RandomizerPool // non-nil when Config.UseNoncePool
}

// New builds a System over the given plaintext table: rows of uint64
// attributes, each value in [0, 2^attrBits). This performs Alice's
// one-time setup (key generation and attribute-wise encryption) and
// stands up the federated cloud.
func New(rows [][]uint64, attrBits int, cfg Config) (*System, error) {
	tbl := &dataset.Table{Rows: rows, AttrBits: attrBits}
	if err := tbl.Validate(); err != nil {
		return nil, fmt.Errorf("sknn: %w", err)
	}
	// Reject bad configuration before the expensive key generation and
	// table encryption below.
	if err := normalizeConfig(&cfg); err != nil {
		return nil, err
	}
	random := wrapRandom(cfg.Random)
	sk := cfg.Key
	if sk == nil {
		var err error
		sk, err = paillier.GenerateKey(random, cfg.KeyBits)
		if err != nil {
			return nil, fmt.Errorf("sknn: generating key: %w", err)
		}
	}

	encTable, err := core.EncryptTable(random, &sk.PublicKey, tbl.Rows)
	if err != nil {
		return nil, fmt.Errorf("sknn: outsourcing table: %w", err)
	}
	featureM := tbl.M()
	if cfg.FeatureColumns > 0 {
		encTable, err = encTable.WithFeatureColumns(cfg.FeatureColumns)
		if err != nil {
			return nil, fmt.Errorf("sknn: %w", err)
		}
		featureM = cfg.FeatureColumns
	}
	if cfg.Index == IndexClustered {
		// Alice-side partitioning: she still holds the plaintext here, so
		// clustering leaks nothing beyond the index layout it produces.
		// Only the feature prefix participates (payload columns carry no
		// distance information). Deterministic seed: a re-outsourced
		// table gets the same layout.
		featureRows := tbl.Rows
		if featureM < tbl.M() {
			featureRows = make([][]uint64, len(tbl.Rows))
			for i, row := range tbl.Rows {
				featureRows[i] = row[:featureM]
			}
		}
		c := cfg.Clusters
		if c == 0 {
			c = cluster.DefaultClusters(tbl.N())
		}
		part, err := cluster.KMeans(featureRows, c, 1)
		if err != nil {
			return nil, fmt.Errorf("sknn: clustering table: %w", err)
		}
		encTable, err = encTable.WithClusterIndex(random, part.Centroids, part.Members)
		if err != nil {
			return nil, fmt.Errorf("sknn: attaching cluster index: %w", err)
		}
	}
	return assemble(sk, encTable, attrBits, dataset.DomainBits(attrBits, featureM), cfg, random)
}

// normalizeConfig applies defaults and rejects invalid settings. Shared
// by New and LoadTable.
func normalizeConfig(cfg *Config) error {
	if cfg.KeyBits == 0 {
		cfg.KeyBits = 512
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Shards < 0 {
		return fmt.Errorf("sknn: negative shard count %d", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Replicas < 0 {
		return fmt.Errorf("sknn: negative replica count %d", cfg.Replicas)
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 1
	}
	if cfg.Index != IndexNone && cfg.Index != IndexClustered {
		return fmt.Errorf("sknn: unknown index mode %d", int(cfg.Index))
	}
	if cfg.Coverage < 0 {
		return fmt.Errorf("sknn: negative coverage factor %g", cfg.Coverage)
	}
	if cfg.Coverage == 0 {
		cfg.Coverage = DefaultCoverage
	}
	if cfg.CompactThreshold == 0 {
		cfg.CompactThreshold = DefaultCompactThreshold
	}
	return nil
}

// wrapRandom makes the configured randomness source safe for the
// concurrent draws of sessions, serve loops, and setup.
func wrapRandom(r io.Reader) io.Reader {
	if r == nil {
		// crypto/rand.Reader is already safe for concurrent use.
		return rand.Reader
	}
	// A user-supplied source (e.g. a deterministic stream) need not be.
	return &lockedReader{r: r}
}

// assemble stands up the federated cloud around an already-encrypted
// table: the shared back half of New (fresh encryption) and LoadTable
// (snapshot reload — note no encryption happens here, which is what
// keeps the load path encrypt-free). With cfg.Shards > 1 the table is
// split by stable id mod Shards — pure ciphertext-pointer shuffling —
// and a scatter-gather coordinator stood up over the shard workers.
func assemble(sk *paillier.PrivateKey, encTable *core.EncryptedTable, attrBits, domainBits int, cfg Config, random io.Reader) (*System, error) {
	index := IndexNone
	if encTable.Clustered() {
		index = IndexClustered
	}
	sys := &System{
		sk:          sk,
		client:      core.NewClient(&sk.PublicKey, random),
		random:      random,
		domainBits:  domainBits,
		attrBits:    attrBits,
		m:           encTable.M(),
		featureM:    encTable.FeatureM(),
		perQuery:    cfg.PerQueryWorkers,
		index:       index,
		cfgClusters: cfg.Clusters,
		coverage:    cfg.Coverage,
		compactAt:   cfg.CompactThreshold,
		closeDone:   make(chan struct{}),
	}
	if !cfg.DisableFixedBase {
		// Build the fixed-base nonce tables before any party holds a
		// copy of the key: C2's CRT-split tables and the shared public-
		// key table both hang off unexported pointers set once here.
		if err := sk.EnableFixedBase(random); err != nil {
			return nil, fmt.Errorf("sknn: fixed-base tables: %w", err)
		}
	}
	tuning := smc.Tuning{Packing: !cfg.DisablePacking}
	c2 := core.NewCloudC2(sk, random)
	if cfg.UseNoncePool {
		pool, err := paillier.NewRandomizerPool(&sk.PublicKey, random, 4096)
		if err != nil {
			return nil, fmt.Errorf("sknn: nonce pool: %w", err)
		}
		pool.Start(2)
		c2.UsePool(pool)
		sys.pool = pool
	}
	// One in-process C2 serves every link — shard pools and the
	// coordinator's merge pool alike (its handlers are stateless).
	newConns := func(n int) []mpc.Conn {
		conns := make([]mpc.Conn, n)
		for i := range conns {
			c1Side, c2Side := mpc.ChanPipe()
			conns[i] = c1Side
			sys.serveWG.Add(1)
			go func(conn mpc.Conn) {
				defer sys.serveWG.Done()
				// ServeConcurrent returns nil on orderly shutdown; any other
				// error is a protocol bug surfaced to the requester as a
				// broken round trip, so it is not separately reported here.
				_ = c2.ServeConcurrent(conn, c2ServeInflight)
			}(c2Side)
		}
		return conns
	}
	fail := func(err error) (*System, error) {
		for _, sh := range sys.shards {
			sh.Close()
		}
		sys.serveWG.Wait()
		if sys.pool != nil {
			sys.pool.Close()
		}
		return nil, err
	}

	sys.replicas = cfg.Replicas
	if cfg.Shards <= 1 && cfg.Replicas <= 1 {
		var err error
		sys.c1, err = core.NewCloudC1(encTable, newConns(cfg.Workers), random)
		if err != nil {
			return fail(fmt.Errorf("sknn: wiring clouds: %w", err))
		}
		sys.c1.SetTuning(tuning)
		return sys, nil
	}

	parts, err := encTable.Snapshot().Split(cfg.Shards)
	if err != nil {
		return fail(fmt.Errorf("sknn: sharding table: %w", err))
	}
	workers := make([]core.Shard, cfg.Shards)
	for i, part := range parts {
		// One restored table per shard, shared by all its replicas: a
		// replica is an independent worker (own link pool to C2) over the
		// same ciphertext snapshot.
		shardTable, err := core.RestoreTable(&sk.PublicKey, part)
		if err != nil {
			return fail(fmt.Errorf("sknn: shard %d table: %w", i, err))
		}
		group := make([]*core.CloudC1, cfg.Replicas)
		members := make([]core.Shard, cfg.Replicas)
		for r := 0; r < cfg.Replicas; r++ {
			c1, err := core.NewCloudC1(shardTable, newConns(cfg.Workers), random)
			if err != nil {
				return fail(fmt.Errorf("sknn: wiring shard %d replica %d: %w", i, r, err))
			}
			c1.SetTuning(tuning)
			sys.shards = append(sys.shards, c1)
			group[r] = c1
			members[r] = &core.LocalShard{C1: c1, Index: i, Count: cfg.Shards}
		}
		sys.shardGroups = append(sys.shardGroups, group)
		sys.deadRep = append(sys.deadRep, make([]bool, cfg.Replicas))
		if cfg.Replicas == 1 {
			workers[i] = members[0]
		} else {
			rs, err := core.NewReplicaSet(members)
			if err != nil {
				return fail(fmt.Errorf("sknn: shard %d replica set: %w", i, err))
			}
			workers[i] = rs
		}
	}
	sys.coord, err = core.NewShardedC1(workers, newConns(cfg.Workers), &sk.PublicKey, random)
	if err != nil {
		return fail(fmt.Errorf("sknn: wiring coordinator: %w", err))
	}
	sys.coord.SetTuning(tuning)
	return sys, nil
}

// tables lists the live table(s): one unsharded, or one per shard
// partition (replicas of a shard share their table, so each partition
// contributes exactly one).
func (s *System) tables() []*core.EncryptedTable {
	if s.c1 != nil {
		return []*core.EncryptedTable{s.c1.Table()}
	}
	out := make([]*core.EncryptedTable, len(s.shardGroups))
	for i, group := range s.shardGroups {
		out[i] = group[0].Table()
	}
	return out
}

// shardFor routes a stable record id to a live worker of its owning
// partition (id mod S). Replicas share the partition's table, so any
// live one serves mutations and routing sessions equally.
func (s *System) shardFor(id uint64) *core.CloudC1 {
	if s.c1 != nil {
		return s.c1
	}
	return s.liveReplica(int(id % uint64(len(s.shardGroups))))
}

// liveReplica picks a worker of one partition that CloseReplica has not
// taken down, falling back to replica 0 when all are dead (its table is
// still valid data even if its links are gone).
func (s *System) liveReplica(shard int) *core.CloudC1 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for r, dead := range s.deadRep[shard] {
		if !dead {
			return s.shardGroups[shard][r]
		}
	}
	return s.shardGroups[shard][0]
}

// N returns the number of live outsourced records: the initial table
// plus Inserts, minus Deletes. Tombstoned rows awaiting Compact are not
// counted.
func (s *System) N() int {
	n := 0
	for _, t := range s.tables() {
		n += t.N()
	}
	return n
}

// M returns the number of attributes.
func (s *System) M() int { return s.m }

// DomainBits returns l, the squared-distance domain size SkNNm uses.
func (s *System) DomainBits() int { return s.domainBits }

// PublicKey exposes the Paillier public key (e.g. for encrypting
// additional data under the same system).
func (s *System) PublicKey() *paillier.PublicKey { return &s.sk.PublicKey }

// Workers reports the configured parallelism per link pool.
func (s *System) Workers() int {
	if s.c1 != nil {
		return s.c1.Workers()
	}
	return s.shards[0].Workers()
}

// Shards reports the partition width: 1 unsharded, Config.Shards
// otherwise.
func (s *System) Shards() int {
	if s.c1 != nil {
		return 1
	}
	return len(s.shardGroups)
}

// Replicas reports the replication factor per shard partition (1 when
// unreplicated).
func (s *System) Replicas() int {
	if s.replicas < 1 {
		return 1
	}
	return s.replicas
}

// ReplicaStats reports each replicated partition's health: per-replica
// inflight/dead state plus the retry and failover counters. Empty when
// the system is not replicated.
func (s *System) ReplicaStats() []core.ReplicaStats {
	if s.coord == nil {
		return nil
	}
	return s.coord.ReplicaStats()
}

// CloseReplica takes one replica of one shard partition out of service:
// its link pool drains and closes, so scans in flight on it finish and
// later picks fail fast — the coordinator marks it dead on the first
// failed pick and requeues that one scan onto a sibling. Queries keep
// succeeding as long as each partition retains a live replica. Closing
// the same replica twice is a no-op; closing on an unreplicated system
// is an error.
func (s *System) CloseReplica(shard, replica int) error {
	if s.coord == nil || s.Replicas() < 2 {
		return fmt.Errorf("sknn: CloseReplica on an unreplicated system")
	}
	if shard < 0 || shard >= len(s.shardGroups) || replica < 0 || replica >= s.Replicas() {
		return fmt.Errorf("sknn: no replica %d/%d in a %d×%d system",
			shard, replica, len(s.shardGroups), s.Replicas())
	}
	s.mu.Lock()
	if s.closed || s.deadRep[shard][replica] {
		s.mu.Unlock()
		return nil
	}
	s.deadRep[shard][replica] = true
	s.mu.Unlock()
	return s.shardGroups[shard][replica].Close()
}

// Index reports the configured SkNNm scan strategy.
func (s *System) Index() IndexMode { return s.index }

// Clusters reports the total cluster count of the clustered index (0
// when Index is IndexNone; summed over shards when sharded). Compact
// may rebuild with a different count as the table grows or shrinks.
func (s *System) Clusters() int {
	c := 0
	for _, t := range s.tables() {
		c += t.Clusters()
	}
	return c
}

// FeatureM returns how many leading attributes participate in distance
// computation — the dimension a query vector must have (equal to M
// unless Config.FeatureColumns narrowed it).
func (s *System) FeatureM() int { return s.featureM }

// CommStats reports cumulative C1↔C2 traffic over every link pool
// (shard workers and coordinator included).
func (s *System) CommStats() mpc.StatsSnapshot {
	if s.c1 != nil {
		return s.c1.CommStats()
	}
	total := s.coord.CommStats()
	for _, sh := range s.shards {
		total = total.Add(sh.CommStats())
	}
	return total
}

// begin registers an in-flight query so Close can drain instead of
// dropping it.
func (s *System) begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.inflight.Add(1)
	return nil
}

func (s *System) end() { s.inflight.Done() }

// Close shuts down the federated cloud: new queries are refused with
// ErrClosed, in-flight queries are drained to completion (not dropped),
// and only then are the connections and serve loops torn down. Every
// Close call — including concurrent and repeated ones — returns only
// after teardown has fully finished.
func (s *System) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.closeDone
		return s.closeErr
	}
	s.closed = true
	s.mu.Unlock()
	s.inflight.Wait()
	var first error
	if s.coord != nil {
		first = s.coord.Close()
	}
	if s.c1 != nil {
		if err := s.c1.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, sh := range s.shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.closeErr = first
	s.serveWG.Wait()
	if s.pool != nil {
		s.pool.Close()
	}
	close(s.closeDone)
	return s.closeErr
}
