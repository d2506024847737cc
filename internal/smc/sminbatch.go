package smc

import (
	"crypto/rand"
	"fmt"
	"math/big"

	"sknn/internal/mpc"
	"sknn/internal/paillier"
)

// This file adds the round-batched form of SMIN: evaluating many
// independent SMIN instances in a constant number of message rounds.
//
// Algorithm 4 runs the tournament one SMIN at a time, so a level with p
// pairs costs 2p round trips (one SM batch + one SMIN exchange per
// pair). All pairs in a level are independent, so SMINPairsBatch fuses
// them: ONE SM frame carrying every pair's bit products and ONE SMIN
// frame carrying every pair's (Γ′, L′) segments. SMINn's round count
// drops from Θ(n) to Θ(log n) — on a wire transport this is the
// difference between seconds and minutes of pure latency. The ablation
// BenchmarkAblationSMINnRoundBatching quantifies it; correctness is
// checked against the scalar path.

// opSMINBatch carries b fused SMIN step-2 payloads:
// [b, l, Γ′₁(l), L′₁(l), …, Γ′_b(l), L′_b(l)] → [M′₁(l), E(α₁), …].
const opSMINBatch mpc.Op = 20

// SMINPair is one independent minimum instance.
type SMINPair struct {
	U, V []*paillier.Ciphertext
}

// SMINPairsBatch computes [min(Uᵢ,Vᵢ)] for every pair in exactly two
// round trips. Each pair gets its own independent functionality coin,
// blinds, and permutations, so the security argument of SMIN applies
// per pair unchanged; batching only shares the frames.
func (rq *Requester) SMINPairsBatch(pairs []SMINPair) ([][]*paillier.Ciphertext, error) {
	if len(pairs) == 0 {
		return nil, ErrEmptyInput
	}
	l := len(pairs[0].U)
	if l == 0 {
		return nil, ErrEmptyInput
	}
	for i, p := range pairs {
		if len(p.U) != l || len(p.V) != l {
			return nil, fmt.Errorf("%w: pair %d has %d/%d bits, want %d",
				ErrLengthMismatch, i, len(p.U), len(p.V), l)
		}
	}
	b := len(pairs)

	// Round 1: all bit products E(uᵢ·vᵢ) across all pairs in one frame.
	us := make([]*paillier.Ciphertext, 0, b*l)
	vs := make([]*paillier.Ciphertext, 0, b*l)
	for _, p := range pairs {
		us = append(us, p.U...)
		vs = append(vs, p.V...)
	}
	uvAll, err := rq.SMBatchBounded(us, vs, 1, 1)
	if err != nil {
		return nil, fmt.Errorf("smc: batched SMIN products: %w", err)
	}

	// Local phase per pair: W, Γ, G, H, Φ, L and the two permutations.
	coins := make([]bool, b)
	rhats := make([][]*big.Int, b)
	pi1s := make([]Permutation, b)
	payload := make([]*big.Int, 0, 2+2*b*l)
	payload = append(payload, big.NewInt(int64(b)), big.NewInt(int64(l)))
	for pi, p := range pairs {
		uv := uvAll[pi*l : (pi+1)*l]
		coin, err := rand.Int(rq.rand, big.NewInt(2))
		if err != nil {
			return nil, fmt.Errorf("smc: batched SMIN coin: %w", err)
		}
		coins[pi] = coin.Int64() == 1
		gamma := make([]*paillier.Ciphertext, l)
		lvec := make([]*paillier.Ciphertext, l)
		rhats[pi] = make([]*big.Int, l)
		hPrev, err := rq.EncryptZero()
		if err != nil {
			return nil, err
		}
		for i := 0; i < l; i++ {
			var w, diff *paillier.Ciphertext
			if coins[pi] {
				w = rq.pk.Sub(p.U[i], uv[i])
				diff = rq.pk.Sub(p.V[i], p.U[i])
			} else {
				w = rq.pk.Sub(p.V[i], uv[i])
				diff = rq.pk.Sub(p.U[i], p.V[i])
			}
			// Same blind choices as scalar SMIN: short offset-by-one r̂
			// and short H-chain rᵢ under tuning, full-range classically.
			var rhat *big.Int
			if rq.tuning.Packing {
				r, err := rq.shortBlind(1)
				if err != nil {
					return nil, err
				}
				rhat = r.Add(r, oneBig)
			} else {
				r, err := rq.pk.RandomZN(rq.rand)
				if err != nil {
					return nil, err
				}
				rhat = r
			}
			rhats[pi][i] = rhat
			gamma[i] = rq.pk.AddPlain(diff, rhat)

			g := rq.pk.Add(rq.pk.Add(p.U[i], p.V[i]), rq.pk.ScalarMulInt64(uv[i], -2))
			var ri *big.Int
			if rq.tuning.Packing {
				ri, err = rq.shortNonzero()
			} else {
				ri, err = rq.pk.RandomNonzeroZN(rq.rand)
			}
			if err != nil {
				return nil, err
			}
			h := rq.pk.Add(rq.pk.ScalarMul(hPrev, ri), g)
			hPrev = h
			phi := rq.pk.AddPlain(h, big.NewInt(-1))
			rpi, err := rq.pk.RandomNonzeroZN(rq.rand)
			if err != nil {
				return nil, err
			}
			lvec[i] = rq.pk.Add(w, rq.pk.ScalarMul(phi, rpi))
		}
		pi1, err := NewPermutation(rq.rand, l)
		if err != nil {
			return nil, err
		}
		pi2, err := NewPermutation(rq.rand, l)
		if err != nil {
			return nil, err
		}
		pi1s[pi] = pi1
		for _, ct := range applyPerm(pi1, gamma) {
			payload = append(payload, ct.Raw())
		}
		for _, ct := range applyPerm(pi2, lvec) {
			payload = append(payload, ct.Raw())
		}
	}

	// Round 2: one fused SMIN step-2 exchange.
	reply, err := rq.roundTrip(opSMINBatch, payload, b*(l+1))
	if err != nil {
		return nil, fmt.Errorf("smc: batched SMIN step 2: %w", err)
	}

	out := make([][]*paillier.Ciphertext, b)
	for pi, p := range pairs {
		seg := reply[pi*(l+1) : (pi+1)*(l+1)]
		mPrime, err := rq.rawCiphertexts(seg[:l])
		if err != nil {
			return nil, err
		}
		encAlpha, err := rq.pk.FromRaw(seg[l])
		if err != nil {
			return nil, fmt.Errorf("smc: batched SMIN E(α) of pair %d: %w", pi, err)
		}
		mTilde := applyPerm(pi1s[pi].Inverse(), mPrime)
		aInv := rq.pk.Inv(encAlpha)
		min := make([]*paillier.Ciphertext, l)
		for i := 0; i < l; i++ {
			lambda := rq.pk.Add(mTilde[i], rq.pk.ScalarMul(aInv, rhats[pi][i]))
			if coins[pi] {
				min[i] = rq.pk.Add(p.U[i], lambda)
			} else {
				min[i] = rq.pk.Add(p.V[i], lambda)
			}
		}
		out[pi] = min
	}
	return out, nil
}

// SMINnBatched is SMINn with every tournament level fused into two
// round trips via SMINPairsBatch. Identical outputs (distribution-wise)
// to SMINn; Θ(log n) rounds instead of Θ(n).
func (rq *Requester) SMINnBatched(ds [][]*paillier.Ciphertext) ([]*paillier.Ciphertext, error) {
	if err := validateBitVectors(ds); err != nil {
		return nil, err
	}
	live := make([][]*paillier.Ciphertext, len(ds))
	copy(live, ds)
	for len(live) > 1 {
		pairs := make([]SMINPair, 0, len(live)/2)
		for i := 0; i+1 < len(live); i += 2 {
			pairs = append(pairs, SMINPair{U: live[i], V: live[i+1]})
		}
		mins, err := rq.SMINPairsBatch(pairs)
		if err != nil {
			return nil, fmt.Errorf("smc: SMINnBatched level of %d: %w", len(live), err)
		}
		next := mins
		if len(live)%2 == 1 {
			next = append(next, live[len(live)-1])
		}
		live = next
	}
	return live[0], nil
}

// handleSMINBatch is C2's half of the fused exchange: the per-pair logic
// is exactly handleSMIN, applied segment-wise.
func (rp *Responder) handleSMINBatch(req *mpc.Message) (*mpc.Message, error) {
	if len(req.Ints) < 2 {
		return nil, fmt.Errorf("%w: batched SMIN header", ErrBadFrame)
	}
	if !req.Ints[0].IsInt64() || !req.Ints[1].IsInt64() {
		return nil, fmt.Errorf("%w: batched SMIN header values", ErrBadFrame)
	}
	b := int(req.Ints[0].Int64())
	l := int(req.Ints[1].Int64())
	if b < 1 || l < 1 || b > 1<<22 || l > 512 || len(req.Ints) != 2+2*b*l {
		return nil, fmt.Errorf("%w: batched SMIN payload of %d ints for b=%d l=%d",
			ErrBadFrame, len(req.Ints), b, l)
	}
	body := req.Ints[2:]
	out := make([]*big.Int, 0, b*(l+1))
	for pi := 0; pi < b; pi++ {
		seg := body[pi*2*l : (pi+1)*2*l]
		gammaP, lvecP := seg[:l], seg[l:]

		alpha := uint64(0)
		for i, v := range lvecP {
			m, err := rp.decryptRaw(v)
			if err != nil {
				return nil, fmt.Errorf("smc: batched SMIN decrypt L′[%d][%d]: %w", pi, i, err)
			}
			if m.Cmp(oneBig) == 0 {
				alpha = 1
			}
		}
		alphaBig := new(big.Int).SetUint64(alpha)
		for i, v := range gammaP {
			ct, err := rp.sk.FromRaw(v)
			if err != nil {
				return nil, fmt.Errorf("smc: batched SMIN Γ′[%d][%d]: %w", pi, i, err)
			}
			mp := rp.sk.ScalarMul(ct, alphaBig)
			mp, err = rp.sk.Rerandomize(rp.rand, mp)
			if err != nil {
				return nil, err
			}
			out = append(out, mp.Raw())
		}
		encAlpha, err := rp.sk.Encrypt(rp.rand, alphaBig)
		if err != nil {
			return nil, err
		}
		out = append(out, encAlpha.Raw())
	}
	return &mpc.Message{Op: opSMINBatch, Ints: out}, nil
}
