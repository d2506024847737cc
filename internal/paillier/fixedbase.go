package paillier

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
)

// This file implements fixed-base windowed exponentiation for the one
// modular exponentiation left on the encryption hot path: the nonce
// power r^N mod N². The base r varies per encryption, so the classic
// trick is to fix it: sample one random unit h at setup, precompute
// hN = h^N mod N², and draw each randomizer as hN^a for fresh a ∈ [0,N).
// hN^a = h^(N·a) is a random element of the group of N-th residues —
// the same set honest randomizers live in — so ciphertexts keep their
// semantic-security argument under the standard fixed-generator
// assumption (see docs/PROTOCOLS.md).
//
// With the base fixed, a window table tab[i][d] = base^(d·2^(w·i))
// turns the exponentiation into one multiplication per non-zero window
// of the exponent: ~⌈bits/w⌉ multiplications instead of ~1.5·bits for
// square-and-multiply, a ~9× cut. When the table is built from the
// private key, the evaluation additionally runs CRT-split mod p² and q²
// (each multiplication on half-width operands costs a quarter), roughly
// doubling the win again — this is what C2's reply encryptions ride.

// fbWindow is the window width in bits. 6 balances table size
// (⌈bits/6⌉·63 group elements ≈ 3 MB at 1024-bit keys) against the
// ~⌈bits/6⌉ multiplications per evaluation.
const fbWindow = 6

// fbTable is a windowed fixed-base table for one (base, modulus) pair.
// The entries are held in Montgomery representation so the per-window
// multiply reduces by REDC instead of a full-width division; Exp
// converts out once at the end. Immutable after construction.
type fbTable struct {
	mod        *big.Int
	maxExpBits int
	mont       *montCtx
	tab        [][]*big.Int // tab[i][d-1] = Mont(base^(d·2^(fbWindow·i)) mod mod)
}

// newFBTable precomputes the window table for exponents below
// 2^maxExpBits. The moduli here (N², p², q²) are always odd, so the
// Montgomery context always exists.
func newFBTable(base, mod *big.Int, maxExpBits int) *fbTable {
	mc, ok := newMontCtx(mod)
	if !ok {
		panic("paillier: fixed-base modulus not odd")
	}
	numWin := (maxExpBits + fbWindow - 1) / fbWindow
	t := &fbTable{mod: mod, maxExpBits: maxExpBits, mont: mc, tab: make([][]*big.Int, numWin)}
	cur := mc.toMont(new(big.Int).Mod(base, mod)) // Mont(base^(2^(fbWindow·i)))
	for i := 0; i < numWin; i++ {
		row := make([]*big.Int, (1<<fbWindow)-1)
		row[0] = new(big.Int).Set(cur)
		for d := 2; d < 1<<fbWindow; d++ {
			row[d-1] = mc.mul(row[d-2], cur)
		}
		t.tab[i] = row
		if i+1 < numWin {
			cur = mc.mul(row[len(row)-1], cur) // cur^(2^fbWindow)
		}
	}
	return t
}

// Exp returns base^e mod mod for 0 ≤ e < 2^maxExpBits; ok is false when
// e is out of range (caller falls back to big.Int.Exp).
func (t *fbTable) Exp(e *big.Int) (*big.Int, bool) {
	if e.Sign() < 0 || e.BitLen() > t.maxExpBits {
		return nil, false
	}
	// Two accumulators swap roles as Montgomery product destinations, so
	// the whole walk reuses three buffers and allocates only at growth.
	var acc, spare, scratch big.Int
	have := false
	bits := e.BitLen()
	for i := 0; i*fbWindow < bits; i++ {
		d := 0
		for j := fbWindow - 1; j >= 0; j-- {
			d = d<<1 | int(e.Bit(i*fbWindow+j))
		}
		if d == 0 {
			continue
		}
		if !have {
			acc.Set(t.tab[i][d-1])
			have = true
		} else {
			t.mont.mulInto(&spare, &scratch, &acc, t.tab[i][d-1])
			acc, spare = spare, acc
		}
	}
	if !have { // e == 0
		return big.NewInt(1), true
	}
	t.mont.redcInto(&acc, &scratch)
	return &acc, true
}

// crtFB is the private-key half of the fixed-base state: tables for hN
// mod p² and q² plus the recombination constant, so C2 evaluates each
// randomizer on half-width operands.
type crtFB struct {
	pSquared, qSquared *big.Int
	q2InvP2            *big.Int // (q²)⁻¹ mod p²
	tabP, tabQ         *fbTable
}

// pkFixedBase is the optional fast-randomizer state hung off a
// PublicKey. Immutable once published by EnableFixedBase.
type pkFixedBase struct {
	hN  *big.Int // h^N mod N²
	tab *fbTable // base hN mod N²
	crt *crtFB   // non-nil only when enabled through the private key
}

// pow evaluates hN^a, CRT-split when the private-key tables exist.
func (fb *pkFixedBase) pow(a *big.Int) (*big.Int, bool) {
	if fb.crt != nil {
		xp, ok := fb.crt.tabP.Exp(a)
		if !ok {
			return nil, false
		}
		xq, ok := fb.crt.tabQ.Exp(a)
		if !ok {
			return nil, false
		}
		// x = xq + q²·((xp − xq)·(q²)⁻¹ mod p²): x ≡ xp (p²), xq (q²).
		t := new(big.Int).Sub(xp, xq)
		t.Mul(t, fb.crt.q2InvP2)
		t.Mod(t, fb.crt.pSquared)
		t.Mul(t, fb.crt.qSquared)
		t.Add(t, xq)
		return t, true
	}
	return fb.tab.Exp(a)
}

// EnableFixedBase installs the fixed-base randomizer state on the public
// key: every subsequent Encrypt/Rerandomize draws nonce powers as hN^a
// instead of computing r^N from scratch. Call once at setup, before the
// key is shared across goroutines; enabling is not synchronized. If
// random is nil, crypto/rand is used. Calling again is a no-op.
func (pk *PublicKey) EnableFixedBase(random io.Reader) error {
	if pk.fb != nil {
		return nil
	}
	fb, err := pk.buildFixedBase(random)
	if err != nil {
		return err
	}
	pk.fb = fb
	return nil
}

// buildFixedBase samples h and precomputes the public (mod N²) table.
func (pk *PublicKey) buildFixedBase(random io.Reader) (*pkFixedBase, error) {
	if random == nil {
		random = rand.Reader
	}
	h, err := pk.randomUnit(random)
	if err != nil {
		return nil, fmt.Errorf("paillier: fixed-base generator: %w", err)
	}
	hN := new(big.Int).Exp(h, pk.N, pk.NSquared)
	return &pkFixedBase{hN: hN, tab: newFBTable(hN, pk.NSquared, pk.N.BitLen())}, nil
}

// FixedBaseEnabled reports whether the fast randomizer path is active.
func (pk *PublicKey) FixedBaseEnabled() bool { return pk.fb != nil }

// EnableFixedBase on the private key installs the same public state plus
// CRT-split tables mod p² and q², the decrypt-side variant C2's reply
// encryptions use. Same setup-time, single-goroutine contract as the
// PublicKey method.
func (sk *PrivateKey) EnableFixedBase(random io.Reader) error {
	if sk.fb != nil && sk.fb.crt != nil {
		return nil
	}
	fb, err := sk.PublicKey.buildFixedBase(random)
	if err != nil {
		return err
	}
	bits := sk.N.BitLen()
	fb.crt = &crtFB{
		pSquared: sk.pSquared,
		qSquared: sk.qSquared,
		q2InvP2:  new(big.Int).ModInverse(sk.qSquared, sk.pSquared),
		tabP:     newFBTable(new(big.Int).Mod(fb.hN, sk.pSquared), sk.pSquared, bits),
		tabQ:     newFBTable(new(big.Int).Mod(fb.hN, sk.qSquared), sk.qSquared, bits),
	}
	sk.fb = fb
	return nil
}

// noncePower returns one fresh randomizer r^N mod N² — via the
// fixed-base table when enabled, else by direct exponentiation.
func (pk *PublicKey) noncePower(random io.Reader) (*big.Int, error) {
	if random == nil {
		random = rand.Reader
	}
	if fb := pk.fb; fb != nil {
		a, err := rand.Int(random, pk.N)
		if err != nil {
			return nil, fmt.Errorf("paillier: fixed-base exponent: %w", err)
		}
		if x, ok := fb.pow(a); ok {
			return x, nil
		}
	}
	r, err := pk.randomUnit(random)
	if err != nil {
		return nil, err
	}
	return new(big.Int).Exp(r, pk.N, pk.NSquared), nil
}
