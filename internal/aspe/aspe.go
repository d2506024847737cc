// Package aspe implements Asymmetric Scalar-Product-preserving
// Encryption (Wong et al., SIGMOD 2009), the prior SkNN scheme the paper
// discusses in Section 2.1 and dismisses as insecure, together with the
// known-plaintext attack that breaks it. It exists here as (a) the
// baseline comparator for benchmarks — ASPE answers kNN in microseconds
// because it is just matrix arithmetic — and (b) a concrete demonstration
// of *why* the heavyweight Paillier-based protocols are the price of
// actual security (examples/aspeattack).
//
// Scheme (the basic version of Wong et al.):
//
//   - secret key: a random invertible (d+1)×(d+1) matrix M;
//   - a data point p is extended to p̂ = (pᵀ, −½|p|²)ᵀ and stored as
//     p′ = Mᵀ·p̂;
//   - a query q is extended to q̂ = r·(qᵀ, 1)ᵀ with fresh random r > 0
//     and issued as q′ = M⁻¹·q̂;
//   - then p′·q′ = p̂·q̂ = r(p·q − ½|p|²), and since
//     −½·dist²(p,q) = p·q − ½|p|² − ½|q|² with |q|² common to all
//     candidates, a LARGER inner product means a SMALLER distance, which
//     is all kNN needs.
//
// The fatal flaw (Section 4 of Yao et al. 2013, and the reason the
// paper's protocols exist): the transform is linear, so an attacker who
// learns d+1 plaintext/ciphertext pairs in general position solves for
// Mᵀ by Gaussian elimination and decrypts the entire database. RecoverKey
// implements exactly that.
package aspe

import (
	"errors"
	"fmt"
	//sknnlint:allow cryptorand -- this package IS the insecure baseline: ASPE falls to the known-plaintext attack below with any rng, and determinism keeps that demonstration reproducible
	mrand "math/rand"
	"sort"

	"sknn/internal/linalg"
)

// Errors returned by this package.
var (
	ErrDimension   = errors.New("aspe: dimension mismatch")
	ErrBadK        = errors.New("aspe: k out of range")
	ErrNeedMore    = errors.New("aspe: attack needs d+1 plaintext/ciphertext pairs")
	ErrDegenerate  = errors.New("aspe: known plaintexts are not in general position")
	ErrInvalidArgs = errors.New("aspe: invalid arguments")
)

// Key is the data owner's secret: the invertible matrix M and its
// inverse, for a d-dimensional point space.
type Key struct {
	d    int
	m    *linalg.Matrix // (d+1)×(d+1)
	mInv *linalg.Matrix
	rng  *mrand.Rand
}

// GenerateKey samples a fresh ASPE key for d-dimensional data. The rng
// is retained for per-query randomness (deterministic under a fixed
// seed, which benchmarks rely on).
func GenerateKey(rng *mrand.Rand, d int) (*Key, error) {
	if d < 1 {
		return nil, fmt.Errorf("%w: d=%d", ErrInvalidArgs, d)
	}
	m := linalg.RandomInvertible(rng, d+1)
	inv, err := m.Inverse()
	if err != nil {
		return nil, fmt.Errorf("aspe: inverting key: %w", err)
	}
	return &Key{d: d, m: m, mInv: inv, rng: rng}, nil
}

// EncryptPoint maps a data point p to its stored form Mᵀ·(p, −½|p|²).
func (k *Key) EncryptPoint(p []float64) ([]float64, error) {
	if len(p) != k.d {
		return nil, fmt.Errorf("%w: point has %d dims, key expects %d", ErrDimension, len(p), k.d)
	}
	ext := make([]float64, k.d+1)
	copy(ext, p)
	var norm float64
	for _, x := range p {
		norm += x * x
	}
	ext[k.d] = -0.5 * norm
	return k.m.Transpose().MulVec(ext)
}

// EncryptQuery maps a query q to M⁻¹·r(q, 1) with fresh r > 0.
func (k *Key) EncryptQuery(q []float64) ([]float64, error) {
	if len(q) != k.d {
		return nil, fmt.Errorf("%w: query has %d dims, key expects %d", ErrDimension, len(q), k.d)
	}
	r := k.rng.Float64() + 0.5 // uniform in [0.5, 1.5): positive, bounded away from 0
	ext := make([]float64, k.d+1)
	for i, x := range q {
		ext[i] = r * x
	}
	ext[k.d] = r
	return k.mInv.MulVec(ext)
}

// Score returns the preserved scalar product p′·q′ = r(p·q − ½|p|²).
// Higher score ⇔ closer point.
func Score(encPoint, encQuery []float64) (float64, error) {
	return linalg.Dot(encPoint, encQuery)
}

// KNN returns the indices of the k nearest points (descending score,
// ties by ascending index), the server-side query procedure of ASPE.
func KNN(encPoints [][]float64, encQuery []float64, k int) ([]int, error) {
	n := len(encPoints)
	if n == 0 {
		return nil, fmt.Errorf("%w: no points", ErrInvalidArgs)
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("%w: k=%d, n=%d", ErrBadK, k, n)
	}
	type scored struct {
		s   float64
		idx int
	}
	all := make([]scored, n)
	for i, p := range encPoints {
		s, err := Score(p, encQuery)
		if err != nil {
			return nil, fmt.Errorf("aspe: scoring point %d: %w", i, err)
		}
		all[i] = scored{s: s, idx: i}
	}
	sort.SliceStable(all, func(a, b int) bool {
		if all[a].s != all[b].s {
			return all[a].s > all[b].s
		}
		return all[a].idx < all[b].idx
	})
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].idx
	}
	return out, nil
}
