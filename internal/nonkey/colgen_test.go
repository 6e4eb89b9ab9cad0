package nonkey

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
)

// genLayout builds a one-column table plan with the given bound blocks, in
// which column "c" has exactly free free cells spread over domain values by
// rng. Block i pins "c" (to a value drawn by rng) when pins[i] is set; the
// other blocks carry an item for another column only, so their head rows are
// free cells of "c" and count towards free.
func genLayout(rng *rand.Rand, cards []int64, pins []bool, free int64, domain int) (*TablePlan, *ColumnPlan) {
	counts := make([]int64, domain)
	rows := free
	blocks := make([]BoundBlock, len(cards))
	for i, card := range cards {
		it := BoundItem{Col: "other", Value: 1}
		if pins[i] {
			it = BoundItem{Col: "c", Value: int64(rng.Intn(domain)) + 1}
			counts[it.Value-1] += card
			rows += card
		}
		blocks[i] = BoundBlock{Items: []BoundItem{it}, Card: card}
	}
	for i := int64(0); i < free; i++ {
		counts[rng.Intn(domain)]++
	}
	col := &relalg.Column{Name: "c", Kind: relalg.NonKey, DomainSize: int64(domain)}
	tbl := &relalg.Table{Name: "t", Rows: rows}
	cp := &ColumnPlan{Col: col, Rows: rows, Counts: counts}
	return &TablePlan{Table: tbl, Cols: map[string]*ColumnPlan{"c": cp}, Bound: blocks}, cp
}

// TestColumnGenFillMatchesAt holds the batch kernel against the scalar
// definition: over randomized layouts — pinned blocks with Card 0, adjacent
// blocks, blocks the column does not pin; free pools of 0, 1, smallPermLimit,
// smallPermLimit+1 and ~1e5 cells; domains of 1, 2, ~sqrt(rows) and ~rows
// values — every Fill over a poisoned [lo,hi) equals At row by row, writes
// nothing past hi-lo, and a full read's multiset equals Counts. Ranges start
// and end at, just inside and just outside every block edge, and their
// lengths straddle the permutation block size.
func TestColumnGenFillMatchesAt(t *testing.T) {
	const poison = int64(-1) << 62
	rng := rand.New(rand.NewSource(20))
	for _, free := range []int64{0, 1, smallPermLimit, smallPermLimit + 1, 100_003} {
		for di := 0; di < 4; di++ {
			for rep := 0; rep < 3; rep++ {
				nBlocks := 1 + rng.Intn(6)
				cards, pins := make([]int64, nBlocks), make([]bool, nBlocks)
				unpinned := int64(0)
				for i := range cards {
					switch rng.Intn(4) {
					case 0: // Card 0: an empty block between its neighbours
					case 1:
						cards[i] = 1 + rng.Int63n(3)
					default:
						cards[i] = 1 + rng.Int63n(3*fillBlock)
					}
					pins[i] = rng.Intn(3) > 0
					if !pins[i] {
						if cards[i] > free-unpinned {
							cards[i] = free - unpinned
						}
						unpinned += cards[i]
					}
				}
				var pinned int64
				for i := range cards {
					if pins[i] {
						pinned += cards[i]
					}
				}
				rows := pinned + free
				domain := []int{1, 2, int(math.Sqrt(float64(rows))) + 1, int(rows) + 1}[di]
				tp, cp := genLayout(rng, cards, pins, free, domain)
				name := fmt.Sprintf("free=%d domain=%d cards=%v pins=%v", free, domain, cards, pins)
				g, err := newColumnGen(tp, cp, 7)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if g.rows != rows {
					t.Fatalf("%s: layout has %d rows, want %d", name, g.rows, rows)
				}

				want := make([]int64, rows)
				got := make([]int64, rows)
				seen := make([]int64, domain)
				for r := range want {
					want[r] = g.At(int64(r))
					got[r] = poison
				}
				g.Fill(got, 0, rows)
				for r, v := range got {
					if v != want[r] {
						t.Fatalf("%s: full Fill row %d = %d, At = %d", name, r, v, want[r])
					}
					seen[v-1]++
				}
				for v := range seen {
					if seen[v] != cp.Counts[v] {
						t.Fatalf("%s: value %d appears %d times, Counts says %d", name, v+1, seen[v], cp.Counts[v])
					}
				}

				// Range edges worth hitting: table ends and every block edge,
				// each one row either side.
				edges := []int64{0, rows}
				var off int64
				for _, c := range cards {
					edges = append(edges, off, off+c)
					off += c
				}
				pick := func() int64 {
					var r int64
					if rng.Intn(2) == 0 {
						r = edges[rng.Intn(len(edges))] + int64(rng.Intn(3)) - 1
					} else {
						r = rng.Int63n(rows + 1)
					}
					if r < 0 {
						r = 0
					}
					return min(r, rows)
				}
				lengths := []int64{0, 1, fillBlock - 1, fillBlock, fillBlock + 1, 2*fillBlock - 1, 2*fillBlock + 1}
				buf := make([]int64, rows+1)
				for i := 0; i < 200; i++ {
					lo := pick()
					hi := pick()
					if rng.Intn(2) == 0 {
						hi = lo + lengths[rng.Intn(len(lengths))]
					}
					if hi < lo {
						lo, hi = hi, lo
					}
					hi = min(hi, rows)
					dst := buf[:hi-lo+1] // one cell of slack: Fill must not touch it
					for j := range dst {
						dst[j] = poison
					}
					g.Fill(dst, lo, hi)
					for j, v := range dst[:hi-lo] {
						if v != want[lo+int64(j)] {
							t.Fatalf("%s: Fill[%d,%d) row %d = %d, At = %d", name, lo, hi, lo+int64(j), v, want[lo+int64(j)])
						}
					}
					if dst[hi-lo] != poison {
						t.Fatalf("%s: Fill[%d,%d) wrote past its range", name, lo, hi)
					}
				}
			}
		}
	}
}

// TestColumnGenGatherMatchesAt holds Gather against the scalar definition:
// over randomized layouts with pinned blocks, free runs and both Feistel and
// small pools, a gather of rows in random order, repeated, and on, inside
// and around every block edge equals At row by row and writes nothing past
// len(rows). Row lists straddle the permutation block size.
func TestColumnGenGatherMatchesAt(t *testing.T) {
	const poison = int64(-1) << 62
	rng := rand.New(rand.NewSource(21))
	for _, free := range []int64{0, 1, smallPermLimit, smallPermLimit + 1, 100_003} {
		for rep := 0; rep < 6; rep++ {
			nBlocks := 1 + rng.Intn(6)
			cards, pins := make([]int64, nBlocks), make([]bool, nBlocks)
			unpinned := int64(0)
			for i := range cards {
				if rng.Intn(4) > 0 {
					cards[i] = 1 + rng.Int63n(3*fillBlock)
				}
				pins[i] = rng.Intn(3) > 0
				if !pins[i] {
					cards[i] = min(cards[i], free-unpinned)
					unpinned += cards[i]
				}
			}
			domain := []int{1, 7, 3000}[rep%3]
			tp, cp := genLayout(rng, cards, pins, free, domain)
			g, err := newColumnGen(tp, cp, 7)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("free=%d domain=%d cards=%v pins=%v", free, domain, cards, pins)
			if g.rows == 0 {
				g.Gather(nil, nil)
				continue
			}
			edges := []int64{0, g.rows - 1}
			var off int64
			for _, c := range cards {
				edges = append(edges, off-1, off, off+1, off+c-1, off+c, off+c+1)
				off += c
			}
			for _, n := range []int{1, fillBlock - 1, fillBlock, fillBlock + 1, 3*fillBlock + 7} {
				rows := make([]int32, n)
				for j := range rows {
					var r int64
					switch rng.Intn(3) {
					case 0:
						r = edges[rng.Intn(len(edges))]
					case 1:
						if j > 0 {
							r = int64(rows[rng.Intn(j)]) // a repeat
						}
					default:
						r = rng.Int63n(g.rows)
					}
					if r < 0 {
						r = 0
					}
					rows[j] = int32(min(r, g.rows-1))
				}
				dst := make([]int64, n+1)
				for j := range dst {
					dst[j] = poison
				}
				g.Gather(dst, rows)
				for j, r := range rows {
					if want := g.At(int64(r)); dst[j] != want {
						t.Fatalf("%s: Gather position %d (row %d) = %d, At = %d", name, j, r, dst[j], want)
					}
				}
				if dst[n] != poison {
					t.Fatalf("%s: Gather of %d rows wrote past them", name, n)
				}
			}
		}
	}
}

// TestFeistelTablesMatchRounds holds the table-driven batch permutation
// against the scalar network for every half-width a layout can use: for h in
// [1,16] and n in {4^h−1, 4^h, 4^h+1} (the last one below h = 16, since
// 4^16+1 is refused), applyBatch equals apply on every rank when n ≤ 2^20
// and on 100 000 sampled ranks above it, in batches of every length up to
// fillBlock.
func TestFeistelTablesMatchRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for h := 1; h <= 16; h++ {
		ns := []uint64{1<<(2*h) - 1, 1 << (2 * h)}
		if h < 16 {
			ns = append(ns, 1<<(2*h)+1)
		}
		for _, n := range ns {
			f := newFeistel(n, uint64(h)*0x9e3779b97f4a7c15+n)
			var ranks []uint64
			if n <= 1<<20 {
				ranks = make([]uint64, n)
				for k := range ranks {
					ranks[k] = uint64(k)
				}
			} else {
				ranks = make([]uint64, 100_000)
				for k := range ranks {
					ranks[k] = uint64(rng.Int63n(int64(n)))
				}
				ranks[0], ranks[1] = 0, n-1
			}
			var xs [fillBlock]uint64
			for len(ranks) > 0 {
				m := min(len(ranks), 1+rng.Intn(fillBlock))
				copy(xs[:m], ranks[:m])
				f.applyBatch(xs[:m])
				for j, k := range ranks[:m] {
					if want := f.apply(k); xs[j] != want {
						t.Fatalf("h=%d n=%d: applyBatch(%d) = %d, apply = %d", h, n, k, xs[j], want)
					}
				}
				ranks = ranks[m:]
			}
		}
	}
}

// TestBuildIndexSkewedPools: on pools of counts of 1, one huge count, and a
// mix, every bucket b of the rank index holds the first pool entry j with
// cum > b<<shift, the index has at most indexBucketsPerValue entries per
// pool value and no more than the free cells, and it is no coarser than
// that bound asks.
func TestBuildIndexSkewedPools(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mixed := make([]int64, 3000)
	for v := range mixed {
		switch rng.Intn(4) {
		case 0:
			mixed[v] = 1
		case 1:
			mixed[v] = 1 + rng.Int63n(1000)
		case 2:
			mixed[v] = 0
		default:
			mixed[v] = 2
		}
	}
	mixed[1234] = 1_000_000
	ones := make([]int64, 20_000)
	for v := range ones {
		ones[v] = 1
	}
	for name, counts := range map[string][]int64{
		"ones":     ones,
		"one huge": {1, 5_000_000, 1},
		"only one": {0, 0, 70_000},
		"mixed":    mixed,
	} {
		col := &relalg.Column{Name: "c", Kind: relalg.NonKey, DomainSize: int64(len(counts))}
		var rows int64
		for _, c := range counts {
			rows += c
		}
		cp := &ColumnPlan{Col: col, Rows: rows, Counts: counts}
		tp := &TablePlan{Table: &relalg.Table{Name: "t", Rows: rows}, Cols: map[string]*ColumnPlan{"c": cp}}
		g, err := newColumnGen(tp, cp, 3)
		if err != nil {
			t.Fatal(err)
		}
		pool := int64(len(g.pool))
		buckets := int64(len(g.idx))
		if buckets > indexBucketsPerValue*pool || buckets > rows {
			t.Errorf("%s: %d buckets for %d values and %d rows", name, buckets, pool, rows)
		}
		if g.shift > 0 && (rows-1)>>(g.shift-1) < indexBucketsPerValue*pool {
			t.Errorf("%s: shift %d is coarser than %d buckets per value needs", name, g.shift, indexBucketsPerValue)
		}
		for b, j := range g.idx {
			lo := int64(b) << g.shift
			if g.pool[j].cum <= lo || (j > 0 && g.pool[j-1].cum > lo) {
				t.Fatalf("%s: idx[%d] = %d is not the first entry with cum > %d", name, b, j, lo)
			}
		}
	}
}

// TestColumnGenRefusesPastFeistelDomain: a column with more than 4^16 free
// rows is refused by name, with the limit, before any row is materialized.
func TestColumnGenRefusesPastFeistelDomain(t *testing.T) {
	const rows = maxFeistelDomain + 1
	col := relalg.Column{Name: "c", Kind: relalg.NonKey, DomainSize: 2}
	tbl := &relalg.Table{Name: "huge", Rows: rows, Columns: []relalg.Column{{Name: "pk", Kind: relalg.PrimaryKey}, col}}
	cp := &ColumnPlan{Col: &tbl.Columns[1], Rows: rows, Counts: []int64{rows - 1, 1}}
	tp := &TablePlan{Table: tbl, Cols: map[string]*ColumnPlan{"c": cp}}
	td := storage.NewTableData(tbl)
	err := tp.Materialize(context.Background(), td, 1, 1, nil)
	if err == nil {
		t.Fatal("Materialize of a column with 4^16+1 free rows succeeded")
	}
	for _, part := range []string{"huge", " c ", "4294967297", "4294967296"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q does not name %q", err, part)
		}
	}
	if c, _ := td.Column("c"); c != nil {
		t.Error("refused column was stored")
	}
	if tp.gens != nil {
		t.Error("refused table kept layouts")
	}
}

// fillFixture is a table of a primary key "pk", a regenerated column "c"
// and a stored column "kept", with c's layout built.
func fillFixture(t *testing.T) (*TablePlan, *storage.TableData) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	tp, _ := genLayout(rng, []int64{3}, []bool{true}, 2*smallPermLimit, 5)
	tp.Table.Columns = []relalg.Column{
		{Name: "pk", Kind: relalg.PrimaryKey},
		*tp.Cols["c"].Col,
		{Name: "kept", Kind: relalg.NonKey, DomainSize: 1},
	}
	g, err := newColumnGen(tp, tp.Cols["c"], 7)
	if err != nil {
		t.Fatal(err)
	}
	tp.gens = map[string]*ColumnGen{"c": g}
	td := storage.NewTableData(tp.Table)
	td.SetCol("kept", make([]int64, tp.Table.Rows))
	return tp, td
}

// TestPlanSourceServesTheDerivedKey: a PlanSource serves the primary key
// through storage's TableData.Fill, the one place the key rule lives, over
// any range.
func TestPlanSourceServesTheDerivedKey(t *testing.T) {
	tp, td := fillFixture(t)
	rows := tp.Table.Rows
	src := NewPlanSource(td, tp)
	rng := rand.New(rand.NewSource(2))
	for range 200 {
		lo := rng.Int63n(rows + 1)
		hi := lo + rng.Int63n(min(rows-lo, 5000)+1)
		got, want := make([]int64, hi-lo), make([]int64, hi-lo)
		if err := src.Fill("pk", got, lo, hi); err != nil {
			t.Fatal(err)
		}
		if err := td.Fill("pk", want, lo, hi); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("PlanSource.Fill(pk, [%d,%d)) differs from TableData.Fill", lo, hi)
		}
	}
}

// TestPlanSourceGatherMatchesFill: a PlanSource gathers the regenerated
// column, the stored one and the primary key exactly as Fill reads them, for
// rows unsorted and repeated, and refuses a row outside the table or a short
// destination without writing.
func TestPlanSourceGatherMatchesFill(t *testing.T) {
	tp, td := fillFixture(t)
	rows := tp.Table.Rows
	src := NewPlanSource(td, tp)
	rng := rand.New(rand.NewSource(3))
	at := make([]int32, 2000)
	for j := range at {
		at[j] = int32(rng.Int63n(rows))
	}
	at[1], at[2] = at[0], int32(rows-1)
	for _, col := range []string{"c", "kept", "pk"} {
		all := make([]int64, rows)
		if err := src.Fill(col, all, 0, rows); err != nil {
			t.Fatal(err)
		}
		got := make([]int64, len(at))
		if err := src.Gather(col, got, at); err != nil {
			t.Fatal(err)
		}
		for j, r := range at {
			if got[j] != all[r] {
				t.Fatalf("%s: Gather position %d (row %d) = %d, Fill = %d", col, j, r, got[j], all[r])
			}
		}
		for _, bad := range []struct {
			rows []int32
			n    int
		}{{[]int32{0, int32(rows)}, 2}, {[]int32{-1}, 1}, {[]int32{0, 1}, 1}} {
			dst := []int64{-7, -7}[:bad.n]
			if err := src.Gather(col, dst, bad.rows); err == nil || !strings.Contains(err.Error(), "t."+col) {
				t.Errorf("%s: Gather(%v) into %d cells: err = %v, want one naming t.%s", col, bad.rows, bad.n, err, col)
			}
			for _, v := range dst {
				if v != -7 {
					t.Fatalf("%s: rejected Gather(%v) wrote dst", col, bad.rows)
				}
			}
		}
	}
}

// TestPlanSourceFillAllocs pins PlanSource.Fill at zero allocations for a
// regenerated column and for the primary key: it runs once per export shard
// and per engine window refill, so an error value built per call to say
// "not stored here" would allocate on every one.
func TestPlanSourceFillAllocs(t *testing.T) {
	tp, td := fillFixture(t)
	src := NewPlanSource(td, tp)
	dst := make([]int64, 4096)
	for _, col := range []string{"c", "pk"} {
		if n := testing.AllocsPerRun(100, func() {
			if err := src.Fill(col, dst, 1000, 1000+int64(len(dst))); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("PlanSource.Fill(%s) allocates %.0f times per call, want 0", col, n)
		}
	}
}

// TestFillRejectsBadRange: a range outside the table or a destination
// shorter than the range is an error naming table, column and range, and
// dst is left untouched — for retained columns, the primary key and
// regenerated columns alike.
func TestFillRejectsBadRange(t *testing.T) {
	const poison = int64(-7)
	tp, td := fillFixture(t)
	rows := tp.Table.Rows
	src := NewPlanSource(td, tp)

	type filler interface {
		Fill(col string, dst []int64, lo, hi int64) error
	}
	cases := []struct {
		name string
		f    filler
		col  string
	}{
		{"source/regenerated", src, "c"},
		{"source/retained", src, "kept"},
		{"source/pk", src, "pk"},
	}
	ranges := []struct {
		lo, hi int64
		n      int
	}{
		{-1, 4, 8},              // negative lo
		{5, 4, 8},               // lo > hi
		{rows - 2, rows + 1, 8}, // past the table
		{rows + 1, rows + 2, 8},
		{0, 8, 7}, // short dst
	}
	for _, c := range cases {
		for _, r := range ranges {
			dst := make([]int64, r.n)
			for j := range dst {
				dst[j] = poison
			}
			err := c.f.Fill(c.col, dst, r.lo, r.hi)
			if err == nil {
				t.Fatalf("%s: Fill[%d,%d) into %d cells succeeded", c.name, r.lo, r.hi, r.n)
			}
			for _, part := range []string{"t." + c.col, fmt.Sprintf("[%d,%d)", r.lo, r.hi)} {
				if !strings.Contains(err.Error(), part) {
					t.Errorf("%s: error %q does not name %s", c.name, err, part)
				}
			}
			for j, v := range dst {
				if v != poison {
					t.Fatalf("%s: rejected Fill[%d,%d) wrote dst[%d]", c.name, r.lo, r.hi, j)
				}
			}
		}
		// The edges themselves are valid: empty ranges and the last row.
		dst := make([]int64, 1)
		for _, r := range [][2]int64{{0, 0}, {rows, rows}, {rows - 1, rows}} {
			if err := c.f.Fill(c.col, dst, r[0], r[1]); err != nil {
				t.Errorf("%s: Fill[%d,%d): %v", c.name, r[0], r[1], err)
			}
		}
	}
}

// BenchmarkColumnGenFill is the kernel's number outside the benchmark driver:
// ns/cell of regenerating one column in engine-window-sized chunks. 600 k rows
// is TPC-H lineitem at the benchmark's SF 10 and 1.8 M rows at its SF 30
// (2.33 passes per cell); 270 k rows sits just above 4^9, the permutation's
// worst case (3.9 passes per cell). The last layout is dominated by pinned
// runs.
func BenchmarkColumnGenFill(b *testing.B) {
	const chunk = 64 * 1024
	run := func(name string, tp *TablePlan, cp *ColumnPlan) {
		b.Run(name, func(b *testing.B) {
			g, err := newColumnGen(tp, cp, 7)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]int64, chunk)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for lo := int64(0); lo < g.rows; lo += chunk {
					g.Fill(dst, lo, min(lo+chunk, g.rows))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*g.rows), "ns/cell")
		})
	}
	for _, rows := range []int64{270_000, 600_000, 1_800_000} {
		for _, domain := range []int{7, 50, 2_500, 100_000} {
			tp, cp := genLayout(rand.New(rand.NewSource(1)), nil, nil, rows, domain)
			run(fmt.Sprintf("rows=%d/domain=%d", rows, domain), tp, cp)
		}
	}
	cards, pins := make([]int64, 64), make([]bool, 64)
	for i := range cards {
		cards[i], pins[i] = 8_000, i%2 == 0
	}
	tp, cp := genLayout(rand.New(rand.NewSource(1)), cards, pins, 300_000, 50)
	run("pinned-heavy/rows=556000/domain=50", tp, cp)
}
