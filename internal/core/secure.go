package core

import (
	"fmt"
	"math/big"
	"sort"
	"sync"
	"time"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/smc"
)

// SecureMetrics breaks down one SkNNm run. The paper reports that SMINn
// dominates (≥69.7% of the total at k=5, growing with k); SMINnShare
// lets the harness reproduce that number. Candidates/ClustersProbed/
// SMINCount quantify what the clustered index saves: a full scan has
// Candidates = n and SMINCount = k·(n−1), a pruned query proportionally
// less. On a sharded system the counters aggregate over every shard's
// scan plus the coordinator's merge, and Scatter/Merge split the wall
// clock between the two phases.
type SecureMetrics struct {
	Total    time.Duration
	Centroid time.Duration // clustered index only: oblivious cluster ranking
	Distance time.Duration // SSED over the candidate records
	BitDecom time.Duration // SBD of all candidate distances
	SMINn    time.Duration // sum over the k SMINn invocations
	Select   time.Duration // τ/β blinding + C2 one-hot (step 3(b)-(c))
	Extract  time.Duration // oblivious record extraction (step 3(d))
	Exclude  time.Duration // SBOR disqualification (step 3(e))
	Reveal   time.Duration // masked result delivery
	Comm     mpc.StatsSnapshot

	// SMINCount is the number of SMIN invocations this query spent —
	// the protocol's dominant cost unit — including any cluster-ranking
	// tournaments and, on a sharded system, the coordinator's merge.
	SMINCount int
	// Candidates is how many records the per-record loop scanned: n for
	// a full scan, the candidate-pool size for a pruned query, the sum
	// over shards for a scatter-gather query.
	Candidates int
	// ClustersProbed is how many clusters contributed candidates (0 for
	// a full scan).
	ClustersProbed int

	// Sharded scatter-gather only (zero otherwise): how many shards the
	// query scattered to, the wall time of the scatter phase (bounded by
	// the slowest shard scan) and of the secure merge over the gathered
	// s·k candidates.
	Shards  int
	Scatter time.Duration
	Merge   time.Duration

	// Failovers counts shard scans this query requeued onto a sibling
	// replica after a worker died mid-protocol (replicated deployments
	// only; see ReplicaSet).
	Failovers int
}

// SMINnShare is SMINn's fraction of total wall-clock time.
func (m *SecureMetrics) SMINnShare() float64 {
	if m.Total <= 0 {
		return 0
	}
	return float64(m.SMINn) / float64(m.Total)
}

// add folds another scan's counters into m (used by the sharded
// coordinator to aggregate per-shard metrics).
func (m *SecureMetrics) add(o *SecureMetrics) {
	m.Centroid += o.Centroid
	m.Distance += o.Distance
	m.BitDecom += o.BitDecom
	m.SMINn += o.SMINn
	m.Select += o.Select
	m.Extract += o.Extract
	m.Exclude += o.Exclude
	m.Comm = m.Comm.Add(o.Comm)
	m.SMINCount += o.SMINCount
	m.Candidates += o.Candidates
	m.ClustersProbed += o.ClustersProbed
	m.Failovers += o.Failovers
}

// SecureQuery runs SkNNm (Algorithm 6), the fully secure protocol: data
// confidentiality, query privacy, and access-pattern hiding against both
// clouds.
//
// domainBits is l, the bit length of the squared-distance domain: all
// |Q−tᵢ|² must be strictly below 2^l − 1 (the all-ones disqualification
// sentinel of step 3(e)). dataset.DomainBits derives it — including the
// sentinel headroom bit — from the attribute domain and dimension.
func (s *QuerySession) SecureQuery(q EncryptedQuery, k, domainBits int) (*MaskedResult, error) {
	res, _, err := s.SecureQueryMetered(q, k, domainBits)
	return res, err
}

// SecureQueryMetered is SecureQuery plus phase timings and traffic
// counts, both scoped to this session's streams.
func (s *QuerySession) SecureQueryMetered(q EncryptedQuery, k, domainBits int) (*MaskedResult, *SecureMetrics, error) {
	if err := s.checkSecureArgs(q, k, domainBits); err != nil {
		return nil, nil, err
	}
	// Full scan over the session view's live records; tombstoned rows
	// are invisible to queries opened after their Delete.
	idx := s.tbl.liveIdx
	metrics := &SecureMetrics{Candidates: len(idx)}
	comm0 := s.CommStats()
	start := time.Now()

	res, err := s.secureScan(q, k, domainBits, idx, metrics)
	if err != nil {
		return nil, nil, err
	}
	metrics.Total = time.Since(start)
	metrics.Comm = s.CommStats().Sub(comm0)
	return res, metrics, nil
}

// SecureQueryClustered runs the partition-pruned SkNNm variant over a
// table with a cluster index: C1 obliviously ranks the encrypted
// centroids with the same SSED+SBD+SMINn machinery, selects nearest
// clusters until their members hold at least max(k, target) records,
// and runs the unchanged per-record protocol over only those clusters'
// records.
//
// This trades a documented leak for the pruning: C1 learns which
// clusters (not which records) a query touches — the SVD-style
// relaxation of access-pattern hiding. C2's view is unchanged.
func (s *QuerySession) SecureQueryClustered(q EncryptedQuery, k, domainBits, target int) (*MaskedResult, error) {
	res, _, err := s.SecureQueryClusteredMetered(q, k, domainBits, target)
	return res, err
}

// SecureQueryClusteredMetered is SecureQueryClustered plus phase
// timings, traffic counts, and pruning counters.
func (s *QuerySession) SecureQueryClusteredMetered(q EncryptedQuery, k, domainBits, target int) (*MaskedResult, *SecureMetrics, error) {
	if !s.tbl.Clustered() {
		return nil, nil, ErrNotClustered
	}
	if err := s.checkSecureArgs(q, k, domainBits); err != nil {
		return nil, nil, err
	}
	metrics := &SecureMetrics{}
	comm0 := s.CommStats()
	start := time.Now()

	idx, err := s.prunedCandidates(q, k, domainBits, target, metrics)
	if err != nil {
		return nil, nil, err
	}

	res, err := s.secureScan(q, k, domainBits, idx, metrics)
	if err != nil {
		return nil, nil, err
	}
	metrics.Total = time.Since(start)
	metrics.Comm = s.CommStats().Sub(comm0)
	return res, metrics, nil
}

// prunedCandidates is the query-time index phase shared by the local
// pruned query and the shard-local pruned scan: rank the encrypted
// centroids obliviously, then pool the probed clusters' live members.
func (s *QuerySession) prunedCandidates(q EncryptedQuery, k, domainBits, target int, metrics *SecureMetrics) ([]int, error) {
	if target < k {
		target = k
	}
	phase := time.Now()
	clusters, err := s.rankClusters(q, domainBits, target, metrics)
	if err != nil {
		return nil, err
	}
	metrics.Centroid = time.Since(phase)

	var idx []int
	for _, j := range clusters {
		idx = append(idx, s.tbl.liveMembers(j)...)
	}
	// Sort so the candidate order carries no information about the
	// cluster ranking into later phases (they permute freshly anyway).
	sort.Ints(idx)
	metrics.Candidates = len(idx)
	metrics.ClustersProbed = len(clusters)
	return idx, nil
}

// NearestCluster obliviously routes a point to its closest cluster:
// the same SSED + SBD + SMINn centroid ranking a pruned query runs,
// stopped after the first winner. It is the secure half of a clustered
// Insert — the data owner encrypts the new record's feature vector like
// a query, C1 and C2 rank the encrypted centroids, and only the winning
// cluster id surfaces (to C1). That id is exactly the clustered index's
// documented leakage class: C1 learns which cluster the new record
// joins, never its attribute values. The plaintext alternative — the
// owner retains the centroids and assigns locally — leaks nothing at
// insert time but requires owner-side state; see docs/PROTOCOLS.md.
func (s *QuerySession) NearestCluster(q EncryptedQuery, domainBits int) (int, error) {
	if !s.tbl.Clustered() {
		return 0, ErrNotClustered
	}
	if err := s.checkQuery(q); err != nil {
		return 0, err
	}
	if domainBits < 1 || domainBits > 512 {
		return 0, fmt.Errorf("%w: l=%d", ErrDomainBits, domainBits)
	}
	// target=1 stops after the first cluster able to hold a record; the
	// rank order makes chosen[0] the nearest centroid even when earlier
	// winners were hollowed out by deletes.
	chosen, err := s.rankClusters(q, domainBits, 1, &SecureMetrics{})
	if err != nil {
		return 0, err
	}
	if len(chosen) == 0 {
		return 0, fmt.Errorf("core: cluster ranking chose nothing")
	}
	return chosen[0], nil
}

// checkSecureArgs is the shared validation of both SkNNm entry points.
func (s *QuerySession) checkSecureArgs(q EncryptedQuery, k, domainBits int) error {
	if err := s.checkQuery(q); err != nil {
		return err
	}
	if err := validateK(k, s.tbl.N()); err != nil {
		return err
	}
	if domainBits < 1 || domainBits > 512 {
		return fmt.Errorf("%w: l=%d", ErrDomainBits, domainBits)
	}
	return nil
}

// attrPackBits is the slot payload width for packed SSED: half the
// squared-distance domain, which always covers one attribute value and
// its query difference (l ≥ 2b by dataset.DomainBits).
func attrPackBits(domainBits int) int {
	if b := domainBits / 2; b > 1 {
		return b
	}
	return 1
}

// rankClusters is the clustered index's query-time phase: an oblivious
// top-p selection over the encrypted centroids. Each round runs SMINn
// over the still-live centroid distances, blinds and permutes the
// differences exactly like step 3(b)-(c), and asks C2 for the argmin
// *position* (OpMinIndex) instead of a one-hot vector; C1
// inverse-permutes the position into a cluster id — the index's
// documented leakage — removes that cluster from the live set in
// plaintext (no SBOR needed once the winner is known), and repeats
// until the chosen clusters hold at least target records.
func (s *QuerySession) rankClusters(q EncryptedQuery, domainBits, target int, metrics *SecureMetrics) ([]int, error) {
	pk := s.pk
	cents := s.tbl.centroids2D()
	nc := len(cents)

	var packed *smc.PackedRows
	if s.packingOn() {
		packed = s.tbl.packedCentroids(attrPackBits(domainBits))
	}
	ds, err := s.distancesOf(q, cents, packed)
	if err != nil {
		return nil, fmt.Errorf("core: centroid SSED: %w", err)
	}
	// The value-domain tournament ranks the composed distances directly,
	// so the centroid bit decomposition — needed only as Algorithm 4
	// input — is skipped entirely on packed sessions.
	useValue := s.valueMinOK(domainBits)
	var bits [][]*paillier.Ciphertext
	if !useValue {
		bits = make([][]*paillier.Ciphertext, nc)
		err = s.parallelOverRecords(nc, func(rq *smc.Requester, lo, hi int) error {
			bs, err := rq.SBDBatch(ds[lo:hi], domainBits)
			if err != nil {
				return fmt.Errorf("core: centroid SBD chunk [%d,%d): %w", lo, hi, err)
			}
			copy(bits[lo:hi], bs)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	live := make([]int, nc)
	for i := range live {
		live[i] = i
	}
	var chosen []int
	pool := 0
	for pool < target && len(live) > 0 {
		if err := s.ctxErr(); err != nil {
			return nil, err
		}
		var winner int
		if len(live) == 1 {
			winner = live[0]
		} else {
			var encMin *paillier.Ciphertext
			if useValue {
				liveDs := make([]*paillier.Ciphertext, len(live))
				for i, j := range live {
					liveDs[i] = ds[j]
				}
				var err error
				encMin, err = s.sminnValue(liveDs, domainBits)
				if err != nil {
					return nil, fmt.Errorf("core: centroid SMINn (round %d): %w", len(chosen)+1, err)
				}
			} else {
				liveBits := make([][]*paillier.Ciphertext, len(live))
				for i, j := range live {
					liveBits[i] = bits[j]
				}
				minBits, err := s.sminnParallel(liveBits)
				if err != nil {
					return nil, fmt.Errorf("core: centroid SMINn (round %d): %w", len(chosen)+1, err)
				}
				encMin = smc.Recompose(pk, minBits)
			}
			metrics.SMINCount += len(live) - 1

			perm, err := smc.NewPermutation(s.primary().Rand(), len(live))
			if err != nil {
				return nil, fmt.Errorf("core: centroid permutation: %w", err)
			}
			tauP := make([]*big.Int, len(live))
			for i := range live {
				src := live[perm[i]]
				tau := pk.Sub(encMin, ds[src])
				r, err := pk.RandomNonzeroZN(s.primary().Rand())
				if err != nil {
					return nil, fmt.Errorf("core: centroid blind: %w", err)
				}
				tauP[i] = pk.ScalarMul(tau, r).Raw()
			}
			resp, err := mpc.RoundTrip(s.primary().Conn(), &mpc.Message{Op: OpMinIndex, Ints: tauP})
			if err != nil {
				return nil, fmt.Errorf("core: centroid min-index: %w", err)
			}
			if len(resp.Ints) != 1 || !resp.Ints[0].IsInt64() {
				return nil, fmt.Errorf("%w: min-index reply", ErrBadFrame)
			}
			pos := int(resp.Ints[0].Int64())
			if pos < 0 || pos >= len(live) {
				return nil, fmt.Errorf("%w: min-index position %d of %d", ErrBadFrame, pos, len(live))
			}
			winner = live[perm[pos]]
		}
		chosen = append(chosen, winner)
		// Only live members fill the candidate pool: a cluster hollowed
		// out by deletes contributes what it actually still holds.
		pool += len(s.tbl.liveMembers(winner))
		for i, j := range live {
			if j == winner {
				live = append(live[:i], live[i+1:]...)
				break
			}
		}
	}
	return chosen, nil
}

// secureScan is the body of Algorithm 6 over the candidate records idx:
// SSED + SBD over the candidates (candidateBits), the k selection
// rounds (selectTopK), and the masked reveal. A full scan passes
// idx = [0,n); the pruned path passes the probed clusters' members.
func (s *QuerySession) secureScan(q EncryptedQuery, k, domainBits int, idx []int, metrics *SecureMetrics) (*MaskedResult, error) {
	n := len(idx)
	if err := validateK(k, n); err != nil {
		return nil, err
	}
	records := make([][]*paillier.Ciphertext, n)
	for i, id := range idx {
		records[i] = s.tbl.records[id]
	}
	ds, bits, err := s.candidateBits(q, domainBits, idx, metrics)
	if err != nil {
		return nil, err
	}
	cands, err := s.selectTopK(bits, records, ds, k, domainBits, metrics)
	if err != nil {
		return nil, err
	}
	selected := make([]EncryptedRecord, len(cands))
	for i, c := range cands {
		selected[i] = c.Rec
	}

	// Steps 4–6 of Algorithm 5: masked reveal.
	phase := time.Now()
	res, err := s.reveal(selected)
	if err != nil {
		return nil, err
	}
	metrics.Reveal = time.Since(phase)
	return res, nil
}

// candidateBits is Stage 1 of Algorithm 6 over the candidate records
// idx: SSED (step 2a) then SBD (step 2b) for every candidate, chunked
// across the session's workers. This — not the k selection rounds — is
// the data-parallel bulk a sharded deployment scatters. Both forms of
// each distance are returned: E(dᵢ) seeds selectTopK's first round so
// the local path never recomposes what SSED already produced.
func (s *QuerySession) candidateBits(q EncryptedQuery, domainBits int, idx []int, metrics *SecureMetrics) ([]*paillier.Ciphertext, [][]*paillier.Ciphertext, error) {
	// Stage boundary: a canceled query stops before SSED rather than
	// paying for a scan nobody will read.
	if err := s.ctxErr(); err != nil {
		return nil, nil, err
	}
	n := len(idx)
	feat := make([][]*paillier.Ciphertext, n)
	for i, id := range idx {
		feat[i] = s.tbl.records[id][:s.featureM]
	}

	// Step 2a: E(dᵢ) for every candidate record.
	phase := time.Now()
	var packed *smc.PackedRows
	if s.packingOn() {
		packed = s.tbl.packedFeatureRows(attrPackBits(domainBits), idx)
	}
	ds, err := s.distancesOf(q, feat, packed)
	if err != nil {
		return nil, nil, err
	}
	metrics.Distance = time.Since(phase)
	if err := s.ctxErr(); err != nil {
		return nil, nil, err
	}

	// Step 2b: [dᵢ] — bit decomposition of every distance (chunked).
	// Value-domain sessions never consume the candidate bit vectors: the
	// tournament compares composed values and the disqualification
	// rewrites them in place, so the whole SBD stage is skipped and the
	// caller receives nil bits.
	if s.valueMinOK(domainBits) {
		return ds, nil, nil
	}
	phase = time.Now()
	bits := make([][]*paillier.Ciphertext, n)
	err = s.parallelOverRecords(n, func(rq *smc.Requester, lo, hi int) error {
		bs, err := rq.SBDBatch(ds[lo:hi], domainBits)
		if err != nil {
			return fmt.Errorf("core: SBD chunk [%d,%d): %w", lo, hi, err)
		}
		copy(bits[lo:hi], bs)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	metrics.BitDecom = time.Since(phase)
	return ds, bits, nil
}

// selectTopK is the k-round selection loop of Algorithm 6 (steps 3(a)
// through 3(e)) over pre-computed candidate distances: SMINn, blinded
// min-select, oblivious record extraction, SBOR disqualification. It is
// deliberately table-agnostic — candidates are (distance, record) pairs
// — so the same engine selects from a shard's scanned records and, at
// the coordinator, from the s·k encrypted candidates the shards return:
// the secure merge is exactly this loop over the gathered candidates.
//
// Every returned Candidate carries the round's E(dmin) alongside the
// extracted record — the composed value each round produces anyway —
// which is what lets a shard ship rank-ordered encrypted candidates
// upward without ever decrypting a distance, and lets the coordinator
// run this same selection over them. bits is mutated in
// place (the disqualification of step 3(e)); pass a copy to keep the
// originals. On value-domain sessions bits may be nil as long as seed
// is provided — the selection never touches bit vectors then. seed,
// when non-nil, is E(dᵢ) for every candidate (SSED's output, or a
// gathered Candidate.Dist) and saves the first round's recompositions;
// callers without composed distances pass nil and round 1 recomposes
// from the bit vectors.
func (s *QuerySession) selectTopK(bits [][]*paillier.Ciphertext, records [][]*paillier.Ciphertext, seed []*paillier.Ciphertext, k, domainBits int, metrics *SecureMetrics) ([]Candidate, error) {
	pk := s.pk
	n := len(records)
	useValue := s.valueMinOK(domainBits)
	if (!useValue || seed == nil) && len(bits) != n {
		return nil, fmt.Errorf("core: %d candidate bit vectors, %d records", len(bits), n)
	}
	if seed != nil && len(seed) != n {
		return nil, fmt.Errorf("core: %d candidate distances, %d records", len(seed), n)
	}
	if err := validateK(k, n); err != nil {
		return nil, err
	}
	m := s.m
	ds := make([]*paillier.Ciphertext, n)

	selected := make([]Candidate, 0, k)

	for iter := 0; iter < k; iter++ {
		// Round boundary: a canceled query abandons the remaining
		// selection rounds (the transport also enforces this mid-round,
		// frame by frame).
		if err := s.ctxErr(); err != nil {
			return nil, err
		}
		// Step 3(b) input: the round's composed distances E(dᵢ). Round 1
		// reuses SSED's output when the caller seeded it (recomposing from
		// the bit vectors otherwise); later rounds recompose from the
		// SBOR-updated bits on classic sessions, while value-domain
		// sessions carry ds forward — the disqualification below already
		// rewrote the winner in place.
		phase := time.Now()
		if iter == 0 {
			if seed != nil {
				copy(ds, seed)
			} else {
				for i := 0; i < n; i++ {
					ds[i] = smc.Recompose(pk, bits[i])
				}
			}
		} else if !useValue {
			for i := 0; i < n; i++ {
				ds[i] = smc.Recompose(pk, bits[i])
			}
		}
		metrics.Select += time.Since(phase)

		// Step 3(a): E(dmin). Packed sessions run the value-domain
		// tournament (smc.SMINnValues) over the composed distances;
		// classic sessions run Algorithm 4 over the bit vectors and
		// recompose the winner. Both shapes cost n−1 SMIN-equivalents,
		// and both end the round holding the composed minimum — the
		// form every consumer (the one-hot select here, a shard merge
		// upstream) wants, so no winner is ever re-decomposed.
		phase = time.Now()
		var encMin *paillier.Ciphertext
		var err error
		if useValue {
			encMin, err = s.sminnValue(ds, domainBits)
			if err != nil {
				return nil, fmt.Errorf("core: iteration %d SMINn: %w", iter+1, err)
			}
		} else {
			minBits, err := s.sminnParallel(bits)
			if err != nil {
				return nil, fmt.Errorf("core: iteration %d SMINn: %w", iter+1, err)
			}
			encMin = smc.Recompose(pk, minBits)
		}
		metrics.SMINCount += n - 1
		metrics.SMINn += time.Since(phase)

		// Step 3(b)-(c): τᵢ = E(rᵢ·(dmin−dᵢ)), permute, and ask C2 for the
		// one-hot selector U. The permutation is fresh per iteration and
		// lives only on this session.
		phase = time.Now()
		tauP := make([]*big.Int, n)
		perm, err := smc.NewPermutation(s.primary().Rand(), n)
		if err != nil {
			return nil, fmt.Errorf("core: iteration %d permutation: %w", iter+1, err)
		}
		for i := 0; i < n; i++ {
			src := perm[i]
			tau := pk.Sub(encMin, ds[src])
			r, err := pk.RandomNonzeroZN(s.primary().Rand())
			if err != nil {
				return nil, fmt.Errorf("core: iteration %d blind: %w", iter+1, err)
			}
			tauP[i] = pk.ScalarMul(tau, r).Raw()
		}
		resp, err := mpc.RoundTrip(s.primary().Conn(), &mpc.Message{Op: OpMinSelect, Ints: tauP})
		if err != nil {
			return nil, fmt.Errorf("core: iteration %d min-select: %w", iter+1, err)
		}
		if len(resp.Ints) != n {
			return nil, fmt.Errorf("%w: min-select reply has %d ints, want %d",
				ErrBadFrame, len(resp.Ints), n)
		}
		// V = π⁻¹(U).
		v := make([]*paillier.Ciphertext, n)
		for i := 0; i < n; i++ {
			ct, err := pk.FromRaw(resp.Ints[i])
			if err != nil {
				return nil, fmt.Errorf("core: iteration %d U[%d]: %w", iter+1, i, err)
			}
			v[perm[i]] = ct
		}
		metrics.Select += time.Since(phase)

		// Step 3(d): oblivious extraction — E(t′ₛ,j) = Πᵢ SM(Vᵢ, E(t_{i,j})).
		phase = time.Now()
		// Per-worker partial column products, combined at the end.
		partials := make([][]*paillier.Ciphertext, len(s.rqs))
		err = s.parallelOverRecords(n, func(rq *smc.Requester, lo, hi int) error {
			sel := make([]*paillier.Ciphertext, 0, (hi-lo)*m)
			rec := make([]*paillier.Ciphertext, 0, (hi-lo)*m)
			for i := lo; i < hi; i++ {
				for j := 0; j < m; j++ {
					sel = append(sel, v[i])
					rec = append(rec, records[i][j])
				}
			}
			// Selectors are bits and record attributes come from uint64
			// rows, so the products can ride the packed SM uplink
			// unconditionally.
			prods, err := rq.SMBatchBounded(sel, rec, 1, 64)
			if err != nil {
				return fmt.Errorf("core: extract chunk [%d,%d): %w", lo, hi, err)
			}
			cols := make([]*paillier.Ciphertext, m)
			for i := lo; i < hi; i++ {
				row := prods[(i-lo)*m : (i-lo+1)*m]
				for j := 0; j < m; j++ {
					if cols[j] == nil {
						cols[j] = row[j]
					} else {
						cols[j] = pk.Add(cols[j], row[j])
					}
				}
			}
			partials[s.workerIndex(rq)] = cols
			return nil
		})
		if err != nil {
			return nil, err
		}
		record := make(EncryptedRecord, m)
		for _, cols := range partials {
			if cols == nil {
				continue
			}
			for j := 0; j < m; j++ {
				if record[j] == nil {
					record[j] = cols[j]
				} else {
					record[j] = pk.Add(record[j], cols[j])
				}
			}
		}
		selected = append(selected, Candidate{Dist: encMin, Rec: record})
		metrics.Extract += time.Since(phase)

		// Step 3(e): oblivious disqualification, driving the winner's
		// distance to the 2^l − 1 sentinel (strictly above any real
		// distance thanks to the DomainBits headroom bit). Skipped after
		// the final iteration (nothing consumes the update).
		if iter == k-1 {
			break
		}
		phase = time.Now()
		if useValue {
			// Value-domain form: dᵢ += Vᵢ·(2^l−1−dᵢ) — n secure
			// multiplications instead of the bit path's n·l SBORs. The
			// gap 2^l−1−dᵢ is below 2^l, so the products ride the packed
			// SM uplink under the domain bound.
			sentinel := new(big.Int).Lsh(big.NewInt(1), uint(domainBits))
			sentinel.Sub(sentinel, big.NewInt(1))
			err = s.parallelOverRecords(n, func(rq *smc.Requester, lo, hi int) error {
				sel := make([]*paillier.Ciphertext, hi-lo)
				gaps := make([]*paillier.Ciphertext, hi-lo)
				for i := lo; i < hi; i++ {
					sel[i-lo] = v[i]
					gaps[i-lo] = pk.AddPlain(pk.Neg(ds[i]), sentinel)
				}
				prods, err := rq.SMBatchBounded(sel, gaps, 1, domainBits)
				if err != nil {
					return fmt.Errorf("core: exclude chunk [%d,%d): %w", lo, hi, err)
				}
				for i := lo; i < hi; i++ {
					ds[i] = pk.Add(ds[i], prods[i-lo])
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			metrics.Exclude += time.Since(phase)
			continue
		}
		err = s.parallelOverRecords(n, func(rq *smc.Requester, lo, hi int) error {
			sel := make([]*paillier.Ciphertext, 0, (hi-lo)*domainBits)
			bts := make([]*paillier.Ciphertext, 0, (hi-lo)*domainBits)
			for i := lo; i < hi; i++ {
				for g := 0; g < domainBits; g++ {
					sel = append(sel, v[i])
					bts = append(bts, bits[i][g])
				}
			}
			ors, err := rq.SBORBatch(sel, bts)
			if err != nil {
				return fmt.Errorf("core: exclude chunk [%d,%d): %w", lo, hi, err)
			}
			for i := lo; i < hi; i++ {
				copy(bits[i], ors[(i-lo)*domainBits:(i-lo+1)*domainBits])
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		metrics.Exclude += time.Since(phase)
	}

	return selected, nil
}

// TopK is the shard-local half of a scatter-gather query: the same scan
// a standalone query runs — pruned when the session's table carries a
// cluster index and target > 0, full otherwise — stopped before the
// masked reveal, returning the top-k candidates still encrypted
// (rank-ordered E(dmin) plus the obliviously extracted record for
// SkNNm; E(d) plus the record for SkNNb). k is clamped to the shard's
// live record count: a shard smaller than k contributes everything it
// has, and an empty shard contributes nothing.
func (s *QuerySession) TopK(q EncryptedQuery, k, domainBits, target int, secure bool) ([]Candidate, *SecureMetrics, error) {
	if err := s.checkQuery(q); err != nil {
		return nil, nil, err
	}
	if k > s.tbl.N() {
		k = s.tbl.N()
	}
	if k == 0 {
		return nil, &SecureMetrics{}, nil
	}
	if !secure {
		return s.basicTopK(q, k)
	}
	if domainBits < 1 || domainBits > 512 {
		return nil, nil, fmt.Errorf("%w: l=%d", ErrDomainBits, domainBits)
	}
	metrics := &SecureMetrics{}
	comm0 := s.CommStats()
	start := time.Now()

	var idx []int
	var err error
	if s.tbl.Clustered() && target > 0 {
		idx, err = s.prunedCandidates(q, k, domainBits, target, metrics)
		if err != nil {
			return nil, nil, err
		}
	} else {
		idx = s.tbl.liveIdx
		metrics.Candidates = len(idx)
	}
	records := make([][]*paillier.Ciphertext, len(idx))
	for i, id := range idx {
		records[i] = s.tbl.records[id]
	}
	ds, bits, err := s.candidateBits(q, domainBits, idx, metrics)
	if err != nil {
		return nil, nil, err
	}
	// Shard-local candidates ship their composed E(dmin) to the
	// coordinator's merge — every selection round produces it for free.
	cands, err := s.selectTopK(bits, records, ds, k, domainBits, metrics)
	if err != nil {
		return nil, nil, err
	}
	metrics.Total = time.Since(start)
	metrics.Comm = s.CommStats().Sub(comm0)
	return cands, metrics, nil
}

// mergeCandidates is the coordinator's secure merge: selectTopK — the
// identical engine the shards ran — over gathered candidates' composed
// distances. On value-domain sessions the gathered E(d) values feed the
// tournament directly, so no bit decomposition happens at the merge
// boundary at all; classic sessions (packing off, or a key too small
// for the value codec) decompose the gathered distances first and run
// the bit-vector engine — the differential oracle for the value path.
// The returned candidates are rank-ordered and carry fresh E(dmin)
// values.
func (s *QuerySession) mergeCandidates(cands []Candidate, k, domainBits int, metrics *SecureMetrics) ([]Candidate, error) {
	n := len(cands)
	records := make([][]*paillier.Ciphertext, n)
	ds := make([]*paillier.Ciphertext, n)
	for i, cand := range cands {
		if cand.Dist == nil {
			return nil, fmt.Errorf("%w: merge candidate %d has no distance", ErrBadFrame, i)
		}
		if len(cand.Rec) != s.m {
			return nil, fmt.Errorf("%w: merge candidate %d has %d attributes, want %d",
				ErrBadFrame, i, len(cand.Rec), s.m)
		}
		records[i] = cand.Rec
		ds[i] = cand.Dist
	}
	if s.valueMinOK(domainBits) {
		return s.selectTopK(nil, records, ds, k, domainBits, metrics)
	}
	phase := time.Now()
	bits := make([][]*paillier.Ciphertext, n)
	err := s.parallelOverRecords(n, func(rq *smc.Requester, lo, hi int) error {
		bs, err := rq.SBDBatch(ds[lo:hi], domainBits)
		if err != nil {
			return fmt.Errorf("core: merge SBD chunk [%d,%d): %w", lo, hi, err)
		}
		copy(bits[lo:hi], bs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	metrics.BitDecom += time.Since(phase)
	return s.selectTopK(bits, records, ds, k, domainBits, metrics)
}

// workerIndex maps a requester back to its slot (for per-worker result
// buffers).
func (s *QuerySession) workerIndex(rq *smc.Requester) int {
	for i, r := range s.rqs {
		if r == rq {
			return i
		}
	}
	panic("core: requester not owned by this session")
}

// valueMinOK reports whether the value-domain tournament can run on this
// session: packing is on and the key fits an (l+1)-bit slot codec (the
// comparison decomposes t = 2^l + a − b, one bit wider than the domain).
func (s *QuerySession) valueMinOK(domainBits int) bool {
	if !s.packingOn() {
		return false
	}
	_, err := paillier.NewPacking(s.pk, domainBits+1)
	return err == nil
}

// sminnValue is the value-domain SMINn: the same ⌈log₂ n⌉-level
// tournament shape as sminnParallel, over composed distances instead of
// bit vectors, with each level's pairs spread across the session's
// streams. Callers gate on valueMinOK.
func (s *QuerySession) sminnValue(ds []*paillier.Ciphertext, l int) (*paillier.Ciphertext, error) {
	if len(ds) == 0 {
		return nil, fmt.Errorf("core: SMINn over empty set")
	}
	if len(s.rqs) == 1 {
		return s.rqs[0].SMINnValues(ds, l)
	}
	live := make([]*paillier.Ciphertext, len(ds))
	copy(live, ds)
	for len(live) > 1 {
		pairs := len(live) / 2
		next := make([]*paillier.Ciphertext, (len(live)+1)/2)
		if len(live)%2 == 1 {
			next[pairs] = live[len(live)-1]
		}
		var wg sync.WaitGroup
		errs := make([]error, len(s.rqs))
		for w := range s.rqs {
			lo := w * pairs / len(s.rqs)
			hi := (w + 1) * pairs / len(s.rqs)
			if lo == hi {
				continue
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				batch := make([]smc.SMINValuePair, hi-lo)
				for p := lo; p < hi; p++ {
					batch[p-lo] = smc.SMINValuePair{A: live[2*p], B: live[2*p+1]}
				}
				mins, err := s.rqs[w].SMINValuePairsBatch(batch, l)
				if err != nil {
					errs[w] = err
					return
				}
				copy(next[lo:hi], mins)
			}(w, lo, hi)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		live = next
	}
	return live[0], nil
}

// sminnParallel is SMINn (Algorithm 4) with each tournament level's
// independent SMIN pairs spread across the session's streams. The
// round structure — ⌈log₂ n⌉ levels, n−1 SMINs — is identical to
// smc.SMINn; only the scheduling differs. With a single stream the
// whole tournament runs through the round-batched form instead (two
// frames per level rather than two per pair).
func (s *QuerySession) sminnParallel(ds [][]*paillier.Ciphertext) ([]*paillier.Ciphertext, error) {
	if len(ds) == 0 {
		return nil, fmt.Errorf("core: SMINn over empty set")
	}
	if len(s.rqs) == 1 {
		return s.rqs[0].SMINnBatched(ds)
	}
	live := make([][]*paillier.Ciphertext, len(ds))
	copy(live, ds)
	for len(live) > 1 {
		pairs := len(live) / 2
		next := make([][]*paillier.Ciphertext, (len(live)+1)/2)
		if len(live)%2 == 1 {
			next[pairs] = live[len(live)-1]
		}
		if pairs == 1 {
			m, err := s.rqs[0].SMIN(live[0], live[1])
			if err != nil {
				return nil, err
			}
			next[0] = m
		} else {
			var wg sync.WaitGroup
			errs := make([]error, len(s.rqs))
			for w := range s.rqs {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for p := w; p < pairs; p += len(s.rqs) {
						m, err := s.rqs[w].SMIN(live[2*p], live[2*p+1])
						if err != nil {
							errs[w] = err
							return
						}
						next[p] = m
					}
				}(w)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return nil, err
				}
			}
		}
		live = next
	}
	return live[0], nil
}
