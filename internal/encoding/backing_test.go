package encoding

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gmm"
)

// TestBackingDenseRowMap: both backings serve physical rows and scatter
// the full matrix by a caller's row map, agreeing bit for bit.
func TestBackingDenseRowMap(t *testing.T) {
	tbl := sampleTable(t, rand.New(rand.NewSource(3)), 300)
	_, mem, err := OpenOrEncode(Storage{}, tbl, 5, gmm.DefaultConfig())
	if err != nil {
		t.Fatalf("OpenOrEncode(memory): %v", err)
	}
	_, col, err := OpenOrEncode(Storage{Dir: t.TempDir(), Name: "p", BlockRows: 64}, tbl, 5, gmm.DefaultConfig())
	if err != nil {
		t.Fatalf("OpenOrEncode(gtvcol): %v", err)
	}
	defer col.Close()

	perm := rand.New(rand.NewSource(8)).Perm(tbl.Rows())
	pos := make([]int32, len(perm))
	for p, at := range perm {
		pos[p] = int32(at)
	}
	phys, _, err := mem.Dense(nil)
	if err != nil {
		t.Fatalf("Dense(nil): %v", err)
	}
	for name, b := range map[string]Backing{"memory": mem, "gtvcol": col} {
		m, owned, err := b.Dense(pos)
		if err != nil {
			t.Fatalf("%s Dense(pos): %v", name, err)
		}
		if !owned {
			t.Fatalf("%s Dense(pos) must hand the caller a fresh matrix", name)
		}
		for p, at := range pos {
			got, want := m.RawRow(int(at)), phys.RawRow(p)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s: row %d of Dense(pos) differs from physical row %d", name, at, p)
				}
			}
		}
		m.Release()
		g, err := b.GatherRows([]int{7, 0, 299})
		if err != nil {
			t.Fatalf("%s GatherRows: %v", name, err)
		}
		for k, p := range []int{7, 0, 299} {
			if math.Float64bits(g.RawRow(k)[0]) != math.Float64bits(phys.RawRow(p)[0]) {
				t.Fatalf("%s: GatherRows row %d is not physical row %d", name, k, p)
			}
		}
		g.Release()
		if _, _, err := b.Dense(pos[:10]); err == nil {
			t.Fatalf("%s: Dense accepted a short row map", name)
		}
	}
}
