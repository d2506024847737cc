package paillier

import "math/big"

// Montgomery arithmetic for the fixed-base window walk. fbTable.Exp
// multiplies one table entry per non-zero window of the exponent; with
// plain big.Int arithmetic every one of those multiplications is
// followed by a full-width division (Mod), and ROADMAP pegs those
// reductions at 15–30% of fixed-base time. Holding the table entries in
// Montgomery representation turns each reduction into REDC — two
// multiplications, a mask, and a shift, no division — at the cost of a
// single conversion out of Montgomery form per evaluation.

// montWordBits aligns R to big.Word boundaries so the mask and shift in
// redc stay cheap whole-word operations.
const montWordBits = 64

// montCtx is a Montgomery reduction context for one odd modulus.
// Immutable after newMontCtx; safe for concurrent use.
type montCtx struct {
	mod   *big.Int // odd modulus m
	shift uint     // R = 2^shift, word-aligned, R > m
	mask  *big.Int // R − 1
	mInv  *big.Int // −m⁻¹ mod R
	rr    *big.Int // R² mod m, the to-Montgomery factor
}

// newMontCtx builds the context for an odd modulus > 1; ok is false for
// moduli Montgomery reduction cannot handle (even or tiny), where the
// caller stays on plain Mod arithmetic.
func newMontCtx(mod *big.Int) (*montCtx, bool) {
	if mod.Sign() <= 0 || mod.Bit(0) == 0 || mod.BitLen() < 2 {
		return nil, false
	}
	shift := uint((mod.BitLen()/montWordBits + 1) * montWordBits)
	r := new(big.Int).Lsh(big.NewInt(1), shift)
	inv := new(big.Int).ModInverse(mod, r) // exists: m odd, R a power of two
	return &montCtx{
		mod:   mod,
		shift: shift,
		mask:  new(big.Int).Sub(r, big.NewInt(1)),
		mInv:  inv.Sub(r, inv),
		rr:    new(big.Int).Mod(new(big.Int).Lsh(big.NewInt(1), 2*shift), mod),
	}, true
}

// redcInto reduces 0 ≤ t < m·R to t·R⁻¹ mod m in place, without
// division: with u = (t mod R)·(−m⁻¹) mod R, the sum t + u·m is
// divisible by R and (t + u·m)/R < 2m, so one conditional subtraction
// finishes. s and u are caller-owned scratch, distinct from t and from
// each other: math/big allocates a fresh result whenever a product's
// destination aliases an operand, so the two products alternate between
// them. All three keep their grown buffers, so a loop reusing them
// allocates nothing.
func (mc *montCtx) redcInto(t, s, u *big.Int) {
	s.And(t, mc.mask)
	u.Mul(s, mc.mInv)
	u.And(u, mc.mask)
	s.Mul(u, mc.mod)
	t.Add(t, s)
	t.Rsh(t, mc.shift)
	if t.Cmp(mc.mod) >= 0 {
		t.Sub(t, mc.mod)
	}
}

// mulInto sets dst = a·b·R⁻¹ mod m (the Montgomery product) using s and
// u as scratch. dst, s and u must not alias a, b or each other.
func (mc *montCtx) mulInto(dst, s, u, a, b *big.Int) {
	dst.Mul(a, b)
	mc.redcInto(dst, s, u)
}

// mul is the allocating form of mulInto, for setup-time use.
func (mc *montCtx) mul(a, b *big.Int) *big.Int {
	dst := new(big.Int)
	mc.mulInto(dst, new(big.Int), new(big.Int), a, b)
	return dst
}

// toMont converts x (a plain residue mod m) into Montgomery form x·R.
func (mc *montCtx) toMont(x *big.Int) *big.Int {
	return mc.mul(x, mc.rr)
}
