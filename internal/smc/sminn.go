package smc

import (
	"fmt"

	"sknn/internal/paillier"
)

// SMINn computes [min(d₁,…,d_n)] from n bit-decomposed encrypted values
// (Algorithm 4). It plays a binary tournament bottom-up: each iteration
// halves the number of live values by pairwise SMIN, so ⌈log₂ n⌉
// iterations and n−1 SMIN invocations total. Only C1 learns the output;
// neither party learns any dᵢ or which input won.
func (rq *Requester) SMINn(ds [][]*paillier.Ciphertext) ([]*paillier.Ciphertext, error) {
	if err := validateBitVectors(ds); err != nil {
		return nil, err
	}
	live := make([][]*paillier.Ciphertext, len(ds))
	copy(live, ds)
	for len(live) > 1 {
		next := make([][]*paillier.Ciphertext, 0, (len(live)+1)/2)
		for i := 0; i+1 < len(live); i += 2 {
			m, err := rq.SMIN(live[i], live[i+1])
			if err != nil {
				return nil, fmt.Errorf("smc: SMINn round of %d: %w", len(live), err)
			}
			next = append(next, m)
		}
		if len(live)%2 == 1 {
			next = append(next, live[len(live)-1])
		}
		live = next
	}
	return live[0], nil
}

func validateBitVectors(ds [][]*paillier.Ciphertext) error {
	if len(ds) == 0 {
		return ErrEmptyInput
	}
	l := len(ds[0])
	if l == 0 {
		return ErrEmptyInput
	}
	for i, d := range ds {
		if len(d) != l {
			return fmt.Errorf("%w: vector %d has %d bits, vector 0 has %d",
				ErrLengthMismatch, i, len(d), l)
		}
	}
	return nil
}
