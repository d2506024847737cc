package smc

import (
	"errors"
	mrand "math/rand"
	"testing"
	"testing/quick"

	"sknn/internal/paillier"
)

func encBitsMany(t *testing.T, sk *paillier.PrivateKey, l int, vals ...uint64) [][]*paillier.Ciphertext {
	t.Helper()
	out := make([][]*paillier.Ciphertext, len(vals))
	for i, v := range vals {
		out[i] = encBits(t, sk, v, l)
	}
	return out
}

func TestSMINnSixValues(t *testing.T) {
	// n = 6 matches the binary execution tree of Figure 1 in the paper.
	rq, sk := pair(t)
	ds := encBitsMany(t, sk, 6, 23, 9, 40, 55, 12, 31)
	min, err := rq.SMINn(ds)
	if err != nil {
		t.Fatal(err)
	}
	if got := decBits(t, sk, min); got != 9 {
		t.Errorf("SMINn = %d, want 9", got)
	}
}

func TestSMINnSingleValue(t *testing.T) {
	rq, sk := pair(t)
	min, err := rq.SMINn(encBitsMany(t, sk, 5, 19))
	if err != nil {
		t.Fatal(err)
	}
	if got := decBits(t, sk, min); got != 19 {
		t.Errorf("SMINn([19]) = %d, want 19", got)
	}
}

func TestSMINnOddCount(t *testing.T) {
	rq, sk := pair(t)
	min, err := rq.SMINn(encBitsMany(t, sk, 6, 44, 3, 60, 17, 29))
	if err != nil {
		t.Fatal(err)
	}
	if got := decBits(t, sk, min); got != 3 {
		t.Errorf("SMINn(5 values) = %d, want 3", got)
	}
}

func TestSMINnMinAtEveryPosition(t *testing.T) {
	rq, sk := pair(t)
	base := []uint64{50, 51, 52, 53}
	for pos := range base {
		vals := append([]uint64(nil), base...)
		vals[pos] = 7
		min, err := rq.SMINn(encBitsMany(t, sk, 6, vals...))
		if err != nil {
			t.Fatal(err)
		}
		if got := decBits(t, sk, min); got != 7 {
			t.Errorf("min at position %d: SMINn = %d, want 7", pos, got)
		}
	}
}

func TestSMINnDuplicateMinima(t *testing.T) {
	rq, sk := pair(t)
	min, err := rq.SMINn(encBitsMany(t, sk, 6, 30, 8, 8, 45))
	if err != nil {
		t.Fatal(err)
	}
	if got := decBits(t, sk, min); got != 8 {
		t.Errorf("SMINn with ties = %d, want 8", got)
	}
}

func TestSMINnValidation(t *testing.T) {
	rq, sk := pair(t)
	if _, err := rq.SMINn(nil); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("empty error = %v", err)
	}
	ragged := [][]*paillier.Ciphertext{encBits(t, sk, 1, 3), encBits(t, sk, 1, 4)}
	if _, err := rq.SMINn(ragged); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("ragged error = %v", err)
	}
}

func TestSMINnPropertyMatchesMin(t *testing.T) {
	rq, sk := pair(t)
	const l = 6
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 8 {
			return true // skip out-of-profile sizes
		}
		vals := make([]uint64, len(raw))
		want := uint64(63)
		for i, r := range raw {
			vals[i] = uint64(r) & 63
			if vals[i] < want {
				want = vals[i]
			}
		}
		min, err := rq.SMINn(encBitsMany(t, sk, l, vals...))
		if err != nil {
			return false
		}
		return decBits(t, sk, min) == want
	}
	cfg := &quick.Config{MaxCount: 6, Rand: mrand.New(mrand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
