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
// (each multiplication on half-width operands costs a quarter), and the
// exponent shrinks with it: Z*_{p²} has order p(p−1) and hN = h^(pq), so
// hN^(p−1) = (h^(p(p−1)))^q ≡ 1 (mod p²) and hN^a ≡ hN^(a mod (p−1))
// (mod p²), likewise for q. Each half therefore walks a (K/2)-bit
// exponent, half the windows of the full-width one, and yields the same
// element of Z*_{N²} bit for bit — this is what C2's reply encryptions
// ride.

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
	// Two accumulators swap roles as Montgomery product destinations and
	// REDC gets two scratch values of its own, so after the first few
	// windows have grown the four buffers the walk allocates nothing.
	var acc, spare, s, u big.Int
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
			t.mont.mulInto(&spare, &s, &u, &acc, t.tab[i][d-1])
			acc, spare = spare, acc
		}
	}
	if !have { // e == 0
		return big.NewInt(1), true
	}
	t.mont.redcInto(&acc, &s, &u)
	return &acc, true
}

// crtFB is the private-key half of the fixed-base state: tables for hN
// mod p² and q² over exponents reduced mod p−1 and q−1, plus the
// recombination constant, so C2 evaluates each randomizer on half-width
// operands and half-width exponents.
type crtFB struct {
	pSquared, qSquared *big.Int
	pMinus1, qMinus1   *big.Int // exponent moduli: hN has order dividing p−1 mod p²
	q2InvP2            *big.Int // (q²)⁻¹ mod p²
	tabP, tabQ         *fbTable
}

// pkFixedBase is the optional fast-randomizer state hung off a
// PublicKey. Immutable once published by EnableFixedBase. Exactly one of
// tab and crt is set: a key enabled through the private key never walks
// the full-width table, so it does not build one.
type pkFixedBase struct {
	hN  *big.Int // h^N mod N²
	tab *fbTable // base hN mod N², full-width exponents (public key only)
	crt *crtFB   // set when enabled through the private key
}

// pow evaluates hN^a mod N². ok is false only on the public table, for
// exponents outside [0, 2^Bits(N)); the CRT tables cover every a.
func (fb *pkFixedBase) pow(a *big.Int) (*big.Int, bool) {
	c := fb.crt
	if c == nil {
		return fb.tab.Exp(a)
	}
	// a mod (p−1) < p−1 fits tabP by construction, likewise for q.
	var e big.Int
	xp, _ := c.tabP.Exp(e.Mod(a, c.pMinus1))
	xq, _ := c.tabQ.Exp(e.Mod(a, c.qMinus1))
	// x = xq + q²·((xp − xq)·(q²)⁻¹ mod p²): x ≡ xp (p²), xq (q²).
	xp.Sub(xp, xq)
	x := new(big.Int).Mul(xp, c.q2InvP2)
	xp.Mod(x, c.pSquared)
	x.Mul(xp, c.qSquared)
	return x.Add(x, xq), true
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
	hN, err := pk.fixedBaseGenerator(random)
	if err != nil {
		return err
	}
	pk.fb = &pkFixedBase{hN: hN, tab: newFBTable(hN, pk.NSquared, pk.N.BitLen())}
	return nil
}

// fixedBaseGenerator samples a random unit h and returns hN = h^N mod N².
func (pk *PublicKey) fixedBaseGenerator(random io.Reader) (*big.Int, error) {
	if random == nil {
		random = rand.Reader
	}
	h, err := pk.randomUnit(random)
	if err != nil {
		return nil, fmt.Errorf("paillier: fixed-base generator: %w", err)
	}
	return new(big.Int).Exp(h, pk.N, pk.NSquared), nil
}

// FixedBaseEnabled reports whether the fast randomizer path is active.
func (pk *PublicKey) FixedBaseEnabled() bool { return pk.fb != nil }

// EnableFixedBase on the private key installs CRT-split tables mod p²
// and q² in place of the public mod-N² table: the decrypt-side variant
// C2's reply encryptions use, and every holder of &sk.PublicKey shares
// it. Same setup-time, single-goroutine contract as the PublicKey
// method.
func (sk *PrivateKey) EnableFixedBase(random io.Reader) error {
	if sk.fb != nil && sk.fb.crt != nil {
		return nil
	}
	hN, err := sk.fixedBaseGenerator(random)
	if err != nil {
		return err
	}
	sk.fb = &pkFixedBase{hN: hN, crt: &crtFB{
		pSquared: sk.pSquared,
		qSquared: sk.qSquared,
		pMinus1:  sk.pMinus1,
		qMinus1:  sk.qMinus1,
		q2InvP2:  new(big.Int).ModInverse(sk.qSquared, sk.pSquared),
		tabP:     newFBTable(new(big.Int).Mod(hN, sk.pSquared), sk.pSquared, sk.pMinus1.BitLen()),
		tabQ:     newFBTable(new(big.Int).Mod(hN, sk.qSquared), sk.qSquared, sk.qMinus1.BitLen()),
	}}
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
