package vfl

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/encoding"
	"repro/internal/tensor"
)

// TestPermIntoMatchesRandPerm pins permInto to math/rand's Perm: the same
// permutation and the same generator position afterwards, so the shared
// shuffle seeds keep producing the orders every client agreed on.
func TestPermIntoMatchesRandPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 1000, 240000} {
		for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
			want := rand.New(rand.NewSource(seed))
			perm := want.Perm(n)
			got := rand.New(rand.NewSource(seed))
			buf := make([]int32, n)
			permInto(got, buf)
			for k := range perm {
				if int(buf[k]) != perm[k] {
					t.Fatalf("n=%d seed=%d: permInto[%d] = %d, rand.Perm = %d", n, seed, k, buf[k], perm[k])
				}
			}
			if a, b := want.Int63(), got.Int63(); a != b {
				t.Fatalf("n=%d seed=%d: generator diverged after the permutation (%d vs %d)", n, seed, a, b)
			}
		}
	}
}

// rowOrderTable builds a client table whose categorical column has many
// categories, so that a row index sent through the wrong map (order
// instead of pos) lands on a row of a different category almost surely.
func rowOrderTable(t testing.TB, rows int, seed int64) *encoding.Table {
	t.Helper()
	cats := []string{"a", "b", "c", "d", "e", "f", "g"}
	rng := rand.New(rand.NewSource(seed))
	d := tensor.New(rows, 3)
	for i := 0; i < rows; i++ {
		c := rng.Intn(len(cats))
		d.Set(i, 0, float64(c))
		d.Set(i, 1, rng.NormFloat64()+float64(c))
		d.Set(i, 2, float64(rng.Intn(2)))
	}
	tbl, err := encoding.NewTable([]encoding.ColumnSpec{
		{Name: "kind", Kind: encoding.KindCategorical, Categories: cats},
		{Name: "amount", Kind: encoding.KindContinuous},
		{Name: "flag", Kind: encoding.KindCategorical, Categories: []string{"n", "y"}},
	}, d)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	return tbl
}

// newRowOrderClient builds a configured client over tbl, holding the
// encoded matrix in memory or, when stored, in a gtvcol file under a
// fresh temp dir. Same-seed clients of both kinds train bit-identically.
func newRowOrderClient(t testing.TB, tbl *encoding.Table, stored bool) *LocalClient {
	t.Helper()
	var st encoding.Storage
	if stored {
		st = encoding.Storage{Dir: t.TempDir(), Name: "client-0", BlockRows: 64}
	}
	c, err := NewLocalClientStored(tbl, NewShuffleCoordinator(17), 3, st)
	if err != nil {
		t.Fatalf("NewLocalClientStored(stored=%v): %v", stored, err)
	}
	t.Cleanup(func() { c.Close() })
	setup := Setup{
		Plan:          Plan{DiscServer: 2, GenClient: 2},
		SliceWidth:    8,
		GenBlockWidth: 8,
		DiscWidth:     8,
		LR:            1e-3,
		Seed:          5,
	}
	if err := c.Configure(setup); err != nil {
		t.Fatalf("Configure: %v", err)
	}
	return c
}

// TestForwardRealRejectsOutOfRangeRows: a hostile or buggy server sending
// an index outside the table gets an error from every backing and over
// gtvwire, and the client keeps serving afterwards.
func TestForwardRealRejectsOutOfRangeRows(t *testing.T) {
	const rows = 120
	tbl := rowOrderTable(t, rows, 4)
	check := func(t *testing.T, c Client) {
		for _, bad := range [][]int{{rows + 5}, {0, rows}, {-1}} {
			if _, err := c.ForwardReal(bad); err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("ForwardReal(%v) = %v, want an out-of-range error", bad, err)
			}
		}
		if _, err := c.ForwardReal([]int{0, rows - 1}); err != nil {
			t.Fatalf("ForwardReal after rejected calls: %v", err)
		}
	}
	for _, stored := range []bool{false, true} {
		name := map[bool]string{false: "memory", true: "gtvcol"}[stored]
		t.Run(name, func(t *testing.T) {
			c := newRowOrderClient(t, tbl, stored)
			if err := c.EndRound(0); err != nil {
				t.Fatalf("EndRound: %v", err)
			}
			check(t, c)
		})
	}
	t.Run("gtvwire", func(t *testing.T) {
		check(t, serveWire(t, newRowOrderClient(t, tbl, false)))
	})
}

// TestCVRowsMatchTableAfterShuffles: after k end-of-round shuffles every
// idx_p a client shares must name a row of its (logical) table that holds
// the chosen category — the contract the server's row alignment rests
// on. In-memory and gtvcol clients of the same seed must also agree row
// for row, and the faithful real pass must see the table in that same
// logical order.
func TestCVRowsMatchTableAfterShuffles(t *testing.T) {
	tbl := rowOrderTable(t, 300, 9)
	mem := newRowOrderClient(t, tbl, false)
	col := newRowOrderClient(t, tbl, true)
	clients := []*LocalClient{mem, col}
	for k := 0; k < 4; k++ {
		for _, c := range clients {
			if err := c.EndRound(k); err != nil {
				t.Fatalf("EndRound(%d): %v", k, err)
			}
		}
		var got [2][][]int
		for ci, c := range clients {
			table := c.Table()
			spans := c.sampler.Spans()
			assertRows := func(what string, rows []int, span, cat []int) {
				for b, r := range rows {
					if v := table.Data.At(r, spans[span[b]].Column); int(v) != cat[b] {
						t.Fatalf("shuffle %d client %d %s: row %d holds category %v, CV chose %d", k, ci, what, r, v, cat[b])
					}
				}
				got[ci] = append(got[ci], rows)
			}
			for _, synthesis := range []bool{false, true} {
				b, err := c.SampleCV(64, synthesis)
				if err != nil {
					t.Fatalf("SampleCV: %v", err)
				}
				span, cat := make([]int, len(b.Rows)), make([]int, len(b.Rows))
				for i, ch := range b.Choices {
					span[i], cat[i] = ch.Span, ch.Category
				}
				assertRows("SampleCV", b.Rows, span, cat)
			}
			for s := 0; s < c.sampler.NumSpans(); s++ {
				for category := 0; category < spans[s].Width; category++ {
					b, err := c.SampleCVFixed(16, s, category)
					if err != nil {
						t.Fatalf("SampleCVFixed: %v", err)
					}
					span, cat := make([]int, len(b.Rows)), make([]int, len(b.Rows))
					for i := range span {
						span[i], cat[i] = s, category
					}
					assertRows("SampleCVFixed", b.Rows, span, cat)
				}
			}
		}
		for i := range got[0] {
			for j := range got[0][i] {
				if got[0][i][j] != got[1][i][j] {
					t.Fatalf("shuffle %d: memory and gtvcol clients sampled different rows", k)
				}
			}
		}
	}

	// Same-seed clients in the same state consume the same dropout draws,
	// so equal logits mean equal real batches: the full pass of either
	// backing must match gathering every logical row in order.
	gathered := newRowOrderClient(t, tbl, false)
	for k := 0; k < 4; k++ {
		if err := gathered.EndRound(k); err != nil {
			t.Fatalf("EndRound(%d): %v", k, err)
		}
	}
	all := make([]int, tbl.Rows())
	for i := range all {
		all[i] = i
	}
	want, err := gathered.ForwardReal(all)
	if err != nil {
		t.Fatalf("ForwardReal(all): %v", err)
	}
	for ci, c := range clients {
		full, err := c.ForwardReal(nil)
		if err != nil {
			t.Fatalf("ForwardReal(nil): %v", err)
		}
		if !full.Equal(want) {
			t.Fatalf("client %d: faithful real pass is not in logical row order", ci)
		}
	}
}

// TestEndRoundAllocationFree: a warm EndRound reuses its row-order
// buffers, so the only allocation left is the seeded rand source, and the
// resident row-order state is the order and its inverse: 8 bytes per row.
func TestEndRoundAllocationFree(t *testing.T) {
	const rows = 5000
	c := newRowOrderClient(t, rowOrderTable(t, rows, 2), false)
	round := 0
	endRound := func() {
		if err := c.EndRound(round); err != nil {
			t.Fatalf("EndRound: %v", err)
		}
		round++
	}
	endRound()
	endRound()
	if allocs := testing.AllocsPerRun(20, endRound); allocs > 1 {
		t.Fatalf("warm EndRound allocates %v times, want at most 1 (the rand source)", allocs)
	}
	if bytes := 4 * (cap(c.order) + cap(c.pos)); bytes > 8*rows {
		t.Fatalf("row-order state holds %d bytes for %d rows, want at most 8 per row", bytes, rows)
	}
}

// BenchmarkLocalClientEndRound times the end-of-round shuffle alone, for
// in-memory and gtvcol clients at a small and a large row count.
func BenchmarkLocalClientEndRound(b *testing.B) {
	for _, rows := range []int{8000, 240000} {
		tbl := rowOrderTable(b, rows, 1)
		for _, stored := range []bool{false, true} {
			name := map[bool]string{false: "memory", true: "gtvcol"}[stored]
			b.Run(fmt.Sprintf("%s/rows=%d", name, rows), func(b *testing.B) {
				c := newRowOrderClient(b, tbl, stored)
				// The first shuffle allocates the row order; time warm ones.
				if err := c.EndRound(0); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 1; i <= b.N; i++ {
					if err := c.EndRound(i); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
