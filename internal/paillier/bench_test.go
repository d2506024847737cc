package paillier

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"sync"
	"testing"
)

// Benchmarks for the cryptosystem substrate. The Encrypt/Decrypt pair at
// 512 vs 1024 bits underlies the paper's "×~7 when K doubles"
// observation; BenchmarkAblationCRTDecrypt quantifies the CRT design
// choice from DESIGN.md §5.

var benchKeys sync.Map // bits -> *PrivateKey

func benchKey(b *testing.B, bits int) *PrivateKey {
	if sk, ok := benchKeys.Load(bits); ok {
		return sk.(*PrivateKey)
	}
	sk, err := GenerateKey(rand.Reader, bits)
	if err != nil {
		b.Fatal(err)
	}
	benchKeys.Store(bits, sk)
	return sk
}

// fbBenchKey is a fixed-base bench key pair of its own, so the shared
// benchKey entries stay table-free: crt carries the private key's CRT
// tables (what sknn.New and C2 install), public is the same modulus with
// only the full-width mod-N² table (what a process holding just the
// public key builds).
type fbBenchKey struct {
	crt    *PrivateKey
	public *PublicKey
}

var fbBenchKeys sync.Map // bits -> fbBenchKey

func fixedBaseBenchKey(b *testing.B, bits int) fbBenchKey {
	if k, ok := fbBenchKeys.Load(bits); ok {
		return k.(fbBenchKey)
	}
	sk, err := GenerateKey(rand.Reader, bits)
	if err != nil {
		b.Fatal(err)
	}
	public := &PublicKey{N: sk.N, NSquared: sk.NSquared}
	if err := public.EnableFixedBase(rand.Reader); err != nil {
		b.Fatal(err)
	}
	if err := sk.EnableFixedBase(rand.Reader); err != nil {
		b.Fatal(err)
	}
	k := fbBenchKey{crt: sk, public: public}
	fbBenchKeys.Store(bits, k)
	return k
}

// BenchmarkEncrypt times one encryption per nonce path: direct r^N (the
// shared bench key has no tables), the public mod-N² table, and the CRT
// tables production encrypts with.
func BenchmarkEncrypt(b *testing.B) {
	for _, bits := range []int{512, 1024} {
		fb := fixedBaseBenchKey(b, bits)
		paths := []struct {
			name string
			pk   *PublicKey
		}{
			{"direct", &benchKey(b, bits).PublicKey},
			{"public", fb.public},
			{"crt", &fb.crt.PublicKey},
		}
		for _, path := range paths {
			b.Run(fmt.Sprintf("K=%d/%s", bits, path.name), func(b *testing.B) {
				m := big.NewInt(123456)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := path.pk.Encrypt(rand.Reader, m); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkDecrypt(b *testing.B) {
	for _, bits := range []int{512, 1024} {
		b.Run(fmt.Sprintf("K=%d", bits), func(b *testing.B) {
			sk := benchKey(b, bits)
			ct, err := sk.Encrypt(rand.Reader, big.NewInt(987654))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sk.Decrypt(ct); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCRTDecrypt compares CRT decryption against the
// textbook path (DESIGN.md §5: C2 decrypts constantly, so this is the
// single most profitable micro-optimization).
func BenchmarkAblationCRTDecrypt(b *testing.B) {
	sk := benchKey(b, 512)
	ct, err := sk.Encrypt(rand.Reader, big.NewInt(55))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("crt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sk.Decrypt(ct); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("textbook", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sk.decryptNoCRT(ct); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFixedBaseExp measures the fixed-base nonce power at K=1024:
// the full-width mod-N² window walk (the Montgomery REDC hot loop), the
// CRT-split walk over exponents reduced mod p−1 and q−1 (what C2 runs),
// and direct big.Int.Exp of the same base and exponent (the cost the
// tables replace).
func BenchmarkFixedBaseExp(b *testing.B) {
	fb := fixedBaseBenchKey(b, 1024)
	pk := fb.public
	exps := make([]*big.Int, 64)
	for i := range exps {
		e, err := rand.Int(rand.Reader, pk.N)
		if err != nil {
			b.Fatal(err)
		}
		exps[i] = e
	}
	b.Run("table", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := pk.fb.tab.Exp(exps[i%len(exps)]); !ok {
				b.Fatal("exponent out of range")
			}
		}
	})
	b.Run("crt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := fb.crt.fb.pow(exps[i%len(exps)]); !ok {
				b.Fatal("exponent out of range")
			}
		}
	})
	b.Run("bigint", func(b *testing.B) {
		hN := pk.fb.hN
		for i := 0; i < b.N; i++ {
			new(big.Int).Exp(hN, exps[i%len(exps)], pk.NSquared)
		}
	})
}

// BenchmarkPackCiphertexts folds a full group of 13-bit slots at K=1024
// (12 slots of Width 79): 11 Horner steps of 79 squarings each.
func BenchmarkPackCiphertexts(b *testing.B) {
	sk := benchKey(b, 1024)
	codec, err := NewPacking(&sk.PublicKey, 13)
	if err != nil {
		b.Fatal(err)
	}
	cts := make([]*Ciphertext, codec.Slots)
	for j := range cts {
		if cts[j], err = sk.Encrypt(rand.Reader, big.NewInt(int64(j))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.PackCiphertexts(cts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHomomorphicOps(b *testing.B) {
	sk := benchKey(b, 512)
	x, _ := sk.Encrypt(rand.Reader, big.NewInt(42))
	y, _ := sk.Encrypt(rand.Reader, big.NewInt(17))
	scalar := big.NewInt(999)
	b.Run("Add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sk.Add(x, y)
		}
	})
	b.Run("ScalarMul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sk.ScalarMul(x, scalar)
		}
	})
	b.Run("Neg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sk.Neg(x)
		}
	})
}
