package sknn

import (
	"crypto/rand"
	"fmt"
	"sort"
	"testing"

	"sknn/internal/dataset"
	"sknn/internal/paillier"
	"sknn/internal/plainknn"
)

// This file is the end-to-end half of the packed-vs-unpacked conformance
// suite (the protocol-level half lives in internal/smc): the same SkNNm
// query runs once with the production tuning (packing, the Config zero
// value) and once with DisablePacking (the classic wire format, our
// differential oracle), across both index modes and both topologies.
// The two paths must return the same top-k rows, and both must match
// the plaintext oracle's k-distance multiset exactly — recall 1.0, not
// approximate.

// sortedRows canonicalizes a result set for multiset comparison.
func sortedRows(rows [][]uint64) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func TestDifferentialSecureQueryMatrix(t *testing.T) {
	const attrBits, k = 5, 3
	topologies := []struct {
		name   string
		shards int
	}{
		{"unsharded", 0},
		{"sharded2", 2},
	}
	indexes := []struct {
		name string
		mode IndexMode
	}{
		{"flat", IndexNone},
		{"clustered", IndexClustered},
	}
	tbl, err := dataset.GenerateClustered(501, 36, 2, attrBits, 4)
	if err != nil {
		t.Fatal(err)
	}
	q, err := dataset.GenerateQuery(502, 2, attrBits)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := plainknn.KDistances(tbl.Rows, q, k)
	if err != nil {
		t.Fatal(err)
	}

	for _, topo := range topologies {
		for _, idx := range indexes {
			t.Run(topo.name+"/"+idx.name, func(t *testing.T) {
				cfg := Config{
					Key: facadeKey(), Shards: topo.shards,
					Index: idx.mode,
				}
				if idx.mode == IndexClustered {
					cfg.Clusters = 4
					cfg.Coverage = 8
				}
				classicCfg := cfg
				classicCfg.DisablePacking = true

				run := func(c Config) [][]uint64 {
					sys, err := New(tbl.Rows, attrBits, c)
					if err != nil {
						t.Fatal(err)
					}
					defer sys.Close()
					rows, err := queryRows(sys, q, k, ModeSecure)
					if err != nil {
						t.Fatal(err)
					}
					return rows
				}
				packed := run(cfg)
				classic := run(classicCfg)

				// Identical top-k between the two wire formats.
				gp, gc := sortedRows(packed), sortedRows(classic)
				for i := range gp {
					if gp[i] != gc[i] {
						t.Fatalf("packed top-k %v diverges from classic %v", gp, gc)
					}
				}
				// Recall 1.0 against the plaintext oracle: the distance
				// multiset must match exactly.
				ds := make([]uint64, len(packed))
				for i, row := range packed {
					ds[i], err = plainknn.SquaredDistance(row[:len(q)], q)
					if err != nil {
						t.Fatal(err)
					}
				}
				sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
				if len(ds) != len(oracle) {
					t.Fatalf("got %d neighbors, want %d", len(ds), len(oracle))
				}
				for i := range oracle {
					if ds[i] != oracle[i] {
						t.Fatalf("distances = %v, oracle %v", ds, oracle)
					}
				}
			})
		}
	}
}

// TestDifferentialConfigKnobs pins the Config wiring itself: New builds
// the fixed-base nonce tables, the zero value enables packing, and the
// DisablePacking knob reaches the pool tuning.
func TestDifferentialConfigKnobs(t *testing.T) {
	tbl, _ := dataset.Generate(511, 6, 2, 3)
	// A fresh key, not the shared test key: earlier Systems have already
	// built tables on that one, so it could not show that New does.
	fresh, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.FixedBaseEnabled() {
		t.Fatal("fresh key has fixed-base tables before New")
	}
	on, err := New(tbl.Rows, 3, Config{Key: fresh})
	if err != nil {
		t.Fatal(err)
	}
	defer on.Close()
	if !fresh.FixedBaseEnabled() {
		t.Error("New did not build the fixed-base tables")
	}
	if !on.c1.Tuning().Packing {
		t.Error("zero-value Config left packing disabled")
	}
	off, err := New(tbl.Rows, 3, Config{Key: facadeKey(), DisablePacking: true})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	if off.c1.Tuning().Packing {
		t.Error("DisablePacking did not reach the pool tuning")
	}
}
