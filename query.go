package sknn

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"sknn/internal/core"
)

// This file is the v2 query surface: one context-aware, options-based
// entry point per shape (Query for a single query, QueryBatch for a
// slice), replacing the five positional-argument v1 variants. See
// docs/API.md for the v1→v2 migration table.

// Typed query errors. ErrClosed (sknn.go) completes the set.
var (
	// ErrBadQuery marks a request rejected by validation — unknown
	// mode, k out of [1, N], a query whose dimension does not match the
	// table's feature columns, or a malformed option value. Validation
	// runs before any Paillier work, so a bad request costs nothing.
	ErrBadQuery = errors.New("sknn: invalid query")

	// ErrCanceled marks a query aborted by its context (canceled or past
	// its deadline). Errors carrying it also wrap ctx.Err(), so
	// errors.Is against context.Canceled or context.DeadlineExceeded
	// works too. It is the same sentinel every layer uses (facade,
	// internal/core, internal/mpc), wherever the cancellation was
	// noticed first.
	ErrCanceled = core.ErrCanceled
)

// Result is one answered query: the k nearest records (full attribute
// rows, nearest first for SkNNb; SkNNm returns ties in random order by
// design), plus bookkeeping the caller may want.
type Result struct {
	// Rows are the k neighbor records, each a full attribute row.
	Rows [][]uint64
	// IDs are the stable record ids of the rows, in row order —
	// populated for ModeBasic only. SkNNb already reveals data access
	// patterns to both clouds, so naming the rows costs no extra
	// leakage; SkNNm hides exactly this information, so secure results
	// carry no ids (the field is nil).
	IDs []uint64
	// Metrics is the mode-matched phase breakdown (Basic set for
	// ModeBasic, Secure for ModeSecure; on a sharded system Secure also
	// carries the coordinator aggregate for basic queries). Nil when the
	// query ran WithoutMetrics.
	Metrics *QueryMetrics
}

// queryOptions is the resolved per-query configuration.
type queryOptions struct {
	k        int
	mode     Mode
	coverage float64 // candidate-pool factor; 0 = the system's configured value
	workers  int     // per-query link-span override; 0 = system default
	metrics  bool
}

// QueryOption tunes one Query or QueryBatch call. Options apply to that
// call only; the System's Config supplies every unspecified value.
type QueryOption func(*queryOptions)

// WithK sets the number of neighbors to return. Default 1.
func WithK(k int) QueryOption { return func(o *queryOptions) { o.k = k } }

// WithMode selects the protocol: ModeSecure (SkNNm, the default — full
// confidentiality and access-pattern hiding) or ModeBasic (SkNNb,
// faster but leaks distances and access patterns to the clouds).
func WithMode(m Mode) QueryOption { return func(o *queryOptions) { o.mode = m } }

// WithCoverage overrides the clustered index's candidate-pool factor
// for this query: clusters are probed until they hold at least
// max(k, coverage·k) records. It refines recall-versus-cost per query
// on an IndexClustered system and is ignored (harmlessly) elsewhere.
func WithCoverage(c float64) QueryOption { return func(o *queryOptions) { o.coverage = c } }

// WithWorkers caps how many pooled C1↔C2 links this one query spans —
// the per-query override of Config.PerQueryWorkers. 0 (the default)
// lets the scheduler decide. Like PerQueryWorkers it governs the
// unsharded engine; sharded queries open one auto-sized session per
// shard pool.
func WithWorkers(w int) QueryOption { return func(o *queryOptions) { o.workers = w } }

// WithoutMetrics skips attaching the per-query phase breakdown to the
// Result (Result.Metrics stays nil) — for hot paths that would only
// throw it away.
func WithoutMetrics() QueryOption { return func(o *queryOptions) { o.metrics = false } }

// newQueryOptions resolves opts over the system defaults.
func (s *System) newQueryOptions(opts []QueryOption) queryOptions {
	o := queryOptions{
		k:       1,
		mode:    ModeSecure,
		workers: s.perQuery,
		metrics: true,
	}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// validateQuery rejects a bad request with ErrBadQuery before any
// expensive work — in particular before the query is Paillier-encrypted
// (the v1 API encrypted first and validated later, so a typo cost a
// full attribute-wise encryption).
func (s *System) validateQuery(q []uint64, o *queryOptions) error {
	switch o.mode {
	case ModeBasic, ModeSecure:
	default:
		return fmt.Errorf("%w: unknown mode %d", ErrBadQuery, int(o.mode))
	}
	if o.k < 1 {
		return fmt.Errorf("%w: k=%d, want k ≥ 1", ErrBadQuery, o.k)
	}
	if n := s.N(); o.k > n {
		return fmt.Errorf("%w: k=%d exceeds the %d live records", ErrBadQuery, o.k, n)
	}
	if len(q) != s.featureM {
		return fmt.Errorf("%w: query has %d attributes, table has %d feature columns",
			ErrBadQuery, len(q), s.featureM)
	}
	if o.coverage < 0 {
		return fmt.Errorf("%w: negative coverage factor %g", ErrBadQuery, o.coverage)
	}
	if o.workers < 0 {
		return fmt.Errorf("%w: negative per-query workers %d", ErrBadQuery, o.workers)
	}
	return nil
}

// ctxQueryErr converts a done context into the facade's typed
// cancellation error (the pre-flight check; once a session is open the
// lower layers enforce the same contract frame by frame).
func ctxQueryErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

// Query answers one k-nearest-neighbor query end-to-end: Bob encrypts
// q, the clouds execute the selected protocol, and Bob unmasks the
// result. Defaults are k=1 and ModeSecure; functional options select
// everything else:
//
//	res, err := sys.Query(ctx, q, sknn.WithK(5), sknn.WithMode(sknn.ModeBasic))
//
// The context governs the whole protocol run: cancel it (or let its
// deadline pass) and the query aborts within one protocol round — the
// in-flight frame finishes, every later round refuses to start, pooled
// links are released — returning an error satisfying both
// errors.Is(err, ErrCanceled) and errors.Is(err, ctx.Err()). On a
// sharded system cancellation fans out: every outstanding shard scan is
// canceled and the merge never starts. The System remains fully usable
// after a canceled query.
//
// Validation (mode, k against the live record count, query dimension
// against the feature columns) runs before the query is encrypted;
// violations return ErrBadQuery. Concurrent calls are multiplexed over
// the connection pool.
func (s *System) Query(ctx context.Context, q []uint64, opts ...QueryOption) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	o := s.newQueryOptions(opts)
	return s.run(ctx, q, &o)
}

// QueryBatch answers len(queries) k-nearest-neighbor queries
// concurrently over the shared connection pool and returns the results
// in query order. Each query runs in its own protocol session; with b
// queries over w Workers the scheduler gives each session ⌊w/b⌋
// connections (at least one), so batches trade single-query latency for
// aggregate throughput — WithWorkers overrides that width per query.
//
// The context covers the whole batch: canceling it aborts every query
// still running (each fails with ErrCanceled). On failure the result
// slice holds nil for every failed query and the error is the
// errors.Join of all per-query failures, so callers can tell which
// queries failed and why (errors.Is/As see through the join).
func (s *System) QueryBatch(ctx context.Context, queries [][]uint64, opts ...QueryOption) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(queries) == 0 {
		return nil, nil
	}
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	o := s.newQueryOptions(opts)
	if o.workers == 0 {
		// Auto width: an even share of the pool per query, so batch
		// throughput scales with concurrency instead of thrashing.
		o.workers = s.Workers() / len(queries)
		if o.workers < 1 {
			o.workers = 1
		}
	}

	// Bound in-flight sessions: more than 2× the pool size only piles
	// queued frames onto the links without adding throughput.
	maxInflight := 2 * s.Workers()
	if maxInflight > len(queries) {
		maxInflight = len(queries)
	}
	sem := make(chan struct{}, maxInflight)
	results := make([]*Result, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q []uint64) {
			defer wg.Done()
			// A query waiting for an in-flight slot gives up on ctx-done
			// instead of queueing work nobody wants anymore.
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				errs[i] = ctxQueryErr(ctx)
				return
			}
			results[i], errs[i] = s.run(ctx, q, &o)
		}(i, q)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return results, err
	}
	return results, nil
}

// run answers one query under an already-registered begin/end pair:
// validate, encrypt, execute on the unsharded engine or the
// scatter-gather coordinator, unmask.
func (s *System) run(ctx context.Context, q []uint64, o *queryOptions) (*Result, error) {
	if err := s.validateQuery(q, o); err != nil {
		return nil, err
	}
	if err := ctxQueryErr(ctx); err != nil {
		// Already-dead contexts skip the Paillier work entirely.
		return nil, err
	}
	eq, err := s.client.EncryptQuery(q)
	if err != nil {
		return nil, err
	}
	coverage := s.coverage
	if o.coverage > 0 {
		coverage = o.coverage
	}
	target := 0
	if s.index == IndexClustered {
		target = core.CoverageTarget(coverage, o.k)
	}

	var (
		res *core.MaskedResult
		qm  = &QueryMetrics{}
	)
	if s.coord != nil {
		var sm *SecureMetrics
		if o.mode == ModeBasic {
			res, sm, err = s.coord.BasicQueryMetered(ctx, eq, o.k)
			if err == nil {
				qm.Basic = &BasicMetrics{Total: sm.Total, Distance: sm.Distance, Comm: sm.Comm}
			}
		} else {
			res, sm, err = s.coord.SecureQueryMetered(ctx, eq, o.k, s.domainBits, target)
		}
		qm.Secure = sm
	} else {
		sess, serr := s.c1.NewSession(ctx, o.workers)
		if serr != nil {
			return nil, serr
		}
		defer sess.Close()
		switch o.mode {
		case ModeBasic:
			res, qm.Basic, err = sess.BasicQueryMetered(eq, o.k)
		case ModeSecure:
			if s.index == IndexClustered {
				res, qm.Secure, err = sess.SecureQueryClusteredMetered(eq, o.k, s.domainBits, target)
			} else {
				res, qm.Secure, err = sess.SecureQueryMetered(eq, o.k, s.domainBits)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	rows, err := s.client.Unmask(res)
	if err != nil {
		return nil, err
	}
	out := &Result{Rows: rows, IDs: res.IDs}
	if o.metrics {
		out.Metrics = qm
	}
	return out, nil
}
