package nonkey

import (
	"fmt"
	"math/rand"
	"sort"
)

// ColumnGen is the chunk-addressable layout of one non-key column: the value
// of any row is a pure function of the row index, so any [lo,hi) slice of the
// column can be generated independently, in any order, on any worker — the
// property the out-of-core export path relies on to regenerate payload
// columns shard by shard without ever materializing them whole.
//
// The layout preserves the exact semantics of the original full-array
// construction: bound-block rows at the head of the table carry their pinned
// values, and every free cell receives one element of the column's remaining
// value multiset (the UCC CDF minus bound consumption) so every unary
// cardinality constraint holds exactly. Where the old path shuffled the
// multiset with a Fisher-Yates pass over the whole column — O(rows) state,
// unsplittable — ColumnGen addresses the sorted multiset through a keyed
// pseudorandom permutation: free cell number k (0-based among the column's
// free cells, in row order) takes the perm(k)-th element of the multiset in
// value order. The permutation is a 4-round cycle-walking Feistel network
// seeded per (table, column), so the bytes are independent of shard size,
// worker count, and generation mode, while remaining statistically
// uncorrelated across columns.
type ColumnGen struct {
	rows int64

	// Bound ranges pinned for this column, ascending and disjoint:
	// rows [lo[i], hi[i]) carry val[i]. before[i] is the total number of
	// pinned rows preceding lo[i] (prefix sum for free-rank arithmetic).
	lo, hi, val, before []int64
	pinned              int64 // total pinned rows

	// Free-pool CDF over the remaining multiset: values ascending with
	// nonzero remaining count, pool[i].cum = count of pool elements with
	// value <= pool[i].val; pool[len-1].cum == rows - pinned. One array, so
	// a lookup touches one cache line for both.
	pool []poolEntry
	// idx is the rank→value index over pool: idx[k>>shift] is the first j
	// with pool[j].cum > (k>>shift)<<shift, so the value of rank k is a
	// short forward walk from there. Built only for Feistel-addressed pools.
	idx   []int32
	shift uint

	perm feistel
	// small replaces the Feistel permutation with the explicitly shuffled
	// pool when the free pool is tiny (≤ smallPermLimit): the arrangement
	// is then byte-identical to the historical Fisher-Yates layout, and
	// the memory cost is bounded by the limit.
	small []int64
}

type poolEntry struct{ cum, val int64 }

// smallPermLimit is the free-pool size up to which ColumnGen stores an
// explicit permutation (≤ 32 KiB per column) instead of the Feistel
// network. Large tables — the ones out-of-core generation exists for — are
// far above it.
const smallPermLimit = 4096

// newColumnGen builds the layout for column cp of table tp. It mirrors the
// bound-block bookkeeping of the original materializer byte-for-byte at the
// constraint level: blocks sit consecutively at the head in declaration
// order, each consuming Card rows; a block pins this column only when it
// carries an item for it — other blocks' head rows stay free cells.
func newColumnGen(tp *TablePlan, cp *ColumnPlan, seed int64) (*ColumnGen, error) {
	g := &ColumnGen{rows: cp.Rows}
	remaining := append([]int64(nil), cp.Counts...)

	offset := int64(0)
	for _, b := range tp.Bound {
		for _, it := range b.Items {
			if it.Col != cp.Col.Name {
				continue
			}
			if it.Value < 1 || it.Value > int64(len(remaining)) {
				return nil, fmt.Errorf("nonkey: bound value %d outside domain of %s", it.Value, cp.Col.Name)
			}
			if remaining[it.Value-1] < b.Card {
				return nil, fmt.Errorf("nonkey: bound block consumes %d rows of %s=%d but only %d remain",
					b.Card, cp.Col.Name, it.Value, remaining[it.Value-1])
			}
			remaining[it.Value-1] -= b.Card
			g.lo = append(g.lo, offset)
			g.hi = append(g.hi, offset+b.Card)
			g.val = append(g.val, it.Value)
			g.before = append(g.before, g.pinned)
			g.pinned += b.Card
		}
		offset += b.Card
	}

	var free int64
	for v, c := range remaining {
		if c > 0 {
			free += c
			g.pool = append(g.pool, poolEntry{cum: free, val: int64(v + 1)})
		}
	}
	if g.pinned+free != g.rows {
		return nil, fmt.Errorf("nonkey: internal: column %s multiset covers %d of %d rows",
			cp.Col.Name, g.pinned+free, g.rows)
	}
	if free > maxFeistelDomain {
		return nil, fmt.Errorf("nonkey: table %s column %s has %d free rows, above the %d (4^16) a column layout addresses",
			tp.Table.Name, cp.Col.Name, free, maxFeistelDomain)
	}
	key := seed ^ colSeed(tp.Table.Name, cp.Col.Name)
	if free <= smallPermLimit {
		pool := make([]int64, 0, free)
		for v, c := range remaining {
			for i := int64(0); i < c; i++ {
				pool = append(pool, int64(v+1))
			}
		}
		rng := rand.New(rand.NewSource(key))
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		g.small = pool
	} else {
		g.perm = newFeistel(uint64(free), uint64(key))
		g.buildIndex(free)
	}
	return g, nil
}

// indexBucketsPerValue is how many rank buckets buildIndex spends per pool
// value. At one per value a bucket spans one to two values and the forward
// walk of a lookup iterates, and mispredicts, on most cells; at eight most
// buckets sit inside one value. On the 600 k-row BenchmarkColumnGenFill
// layouts (2 vCPU) eight took Fill from 21–25 to 11–18 ns per cell.
const indexBucketsPerValue = 8

// buildIndex buckets the free ranks [0,free) into at most
// indexBucketsPerValue·len(pool) power-of-two-wide buckets — never more than
// free — and records where in pool each bucket starts. The index costs at
// most two bytes per pool byte (eight int32 per 16-byte entry) and at most
// four bytes per free cell.
func (g *ColumnGen) buildIndex(free int64) {
	for (free-1)>>g.shift >= indexBucketsPerValue*int64(len(g.pool)) {
		g.shift++
	}
	g.idx = make([]int32, (free-1)>>g.shift+1)
	j := 0
	for b := range g.idx {
		for g.pool[j].cum <= int64(b)<<g.shift {
			j++
		}
		g.idx[b] = int32(j)
	}
}

// maxValue returns the largest value the column holds: its largest pinned
// or pool value (0 for a column without rows).
func (g *ColumnGen) maxValue() int64 {
	var m int64
	if len(g.pool) > 0 {
		m = g.pool[len(g.pool)-1].val
	}
	for _, v := range g.val {
		if v > m {
			m = v
		}
	}
	return m
}

// At returns the value of row r: the scalar definition of the layout. It is
// the oracle the kernel tests hold Fill against and has no production caller
// — Materialize, export and windowed keygen all go through Fill.
func (g *ColumnGen) At(r int64) int64 {
	// Pinned range containing r?
	i := sort.Search(len(g.lo), func(i int) bool { return g.hi[i] > r })
	if i < len(g.lo) && g.lo[i] <= r {
		return g.val[i]
	}
	// Free rank of r = r minus pinned rows before it.
	rank := r
	if i > 0 {
		rank -= g.before[i-1] + (g.hi[i-1] - g.lo[i-1])
	}
	if g.small != nil {
		return g.small[rank]
	}
	k := int64(g.perm.apply(uint64(rank)))
	j := sort.Search(len(g.pool), func(j int) bool { return g.pool[j].cum > k })
	return g.pool[j].val
}

// Fill writes rows [lo,hi) of the column into dst[0:hi-lo]; the caller
// guarantees 0 <= lo <= hi <= rows and len(dst) >= hi-lo. It walks the pinned
// blocks once: one search finds the first block ending past lo, then pinned
// runs are written run-length and each free run costs one free-rank
// computation, because consecutive free rows have consecutive ranks.
func (g *ColumnGen) Fill(dst []int64, lo, hi int64) {
	i := sort.Search(len(g.lo), func(i int) bool { return g.hi[i] > lo })
	for r := lo; r < hi; {
		// i is the first block ending past r (zero-Card blocks drop out here).
		for i < len(g.lo) && g.hi[i] <= r {
			i++
		}
		end := hi
		if i < len(g.lo) && g.lo[i] <= r {
			if g.hi[i] < end {
				end = g.hi[i]
			}
			run, v := dst[r-lo:end-lo], g.val[i]
			for j := range run {
				run[j] = v
			}
		} else {
			if i < len(g.lo) && g.lo[i] < end {
				end = g.lo[i]
			}
			rank := r
			if i > 0 {
				rank -= g.before[i-1] + (g.hi[i-1] - g.lo[i-1])
			}
			g.fillFree(dst[r-lo:end-lo], rank)
		}
		r = end
	}
}

// fillBlock is how many ranks the permutation is run over at a time: small
// enough for the rank array to live on the stack and in L1, large enough to
// amortize the per-block loop set-up.
const fillBlock = 256

// fillFree writes the values of free ranks [rank, rank+len(dst)) into dst.
func (g *ColumnGen) fillFree(dst []int64, rank int64) {
	if g.small != nil {
		copy(dst, g.small[rank:])
		return
	}
	var ks [fillBlock]uint64
	for len(dst) > 0 {
		n := min(len(dst), fillBlock)
		for j := range ks[:n] {
			ks[j] = uint64(rank) + uint64(j)
		}
		g.rankValues(dst[:n], ks[:n])
		dst, rank = dst[n:], rank+int64(n)
	}
}

// rankValues writes the value of free rank ks[j] into dst[j] for a
// Feistel-addressed pool: ks (at most fillBlock ranks) is permuted in place,
// then each permuted rank is looked up through the bucket index.
func (g *ColumnGen) rankValues(dst []int64, ks []uint64) {
	g.perm.applyBatch(ks)
	idx, pool, shift := g.idx, g.pool, g.shift&63
	for j, k := range ks {
		i := idx[k>>shift]
		for pool[i].cum <= int64(k) {
			i++
		}
		dst[j] = pool[i].val
	}
}

// Gather writes the value of row rows[j] into dst[j] for every j; the caller
// guarantees every row lies in [0,rows) and len(dst) >= len(rows). Rows may
// come in any order and repeat. Each row costs one search over the pinned
// blocks; the free ranks are then collected and run through the permutation
// fillBlock at a time, as Fill runs them.
func (g *ColumnGen) Gather(dst []int64, rows []int32) {
	var ks [fillBlock]uint64
	var at [fillBlock]int32 // dst position of ks[m]
	m := 0
	for j, r := range rows {
		r := int64(r)
		i := sort.Search(len(g.lo), func(i int) bool { return g.hi[i] > r })
		if i < len(g.lo) && g.lo[i] <= r {
			dst[j] = g.val[i]
			continue
		}
		rank := r
		if i > 0 {
			rank -= g.before[i-1] + (g.hi[i-1] - g.lo[i-1])
		}
		if g.small != nil {
			dst[j] = g.small[rank]
			continue
		}
		ks[m], at[m] = uint64(rank), int32(j)
		if m++; m == fillBlock {
			g.scatterRanks(dst, at[:m], ks[:m])
			m = 0
		}
	}
	g.scatterRanks(dst, at[:m], ks[:m])
}

// scatterRanks writes the value of free rank ks[q] into dst[at[q]].
func (g *ColumnGen) scatterRanks(dst []int64, at []int32, ks []uint64) {
	var vals [fillBlock]int64
	g.rankValues(vals[:len(ks)], ks)
	for q, v := range vals[:len(ks)] {
		dst[at[q]] = v
	}
}

// feistel is a keyed pseudorandom permutation over [0,n) built from a
// balanced 4-round Feistel network with cycle walking: the network permutes
// the next power-of-four domain covering n, and out-of-range outputs are
// re-encrypted until they land inside [0,n) (expected < 4 iterations, since
// the walked domain is below 4n). A bijection by construction — exactly the
// property that makes every free cell consume exactly one multiset element.
//
// Each round's input is half bits wide, so its round function is a table:
// tab[i][r] = mix64(r ^ keys[i]) & mask for every r < 2^half, built once per
// column. half ≤ 16 (n ≤ maxFeistelDomain, which newColumnGen enforces), so
// an entry fits a uint16 and the four tables cost 4·2^half·2 bytes: 8 KiB at
// half = 10.
type feistel struct {
	n    uint64
	half uint
	mask uint64
	keys [4]uint64
	tab  [4][]uint16
}

// maxFeistelDomain is the largest n a feistel permutes: 4^16, the domain of
// a network whose half-width round tables index with 16 bits.
const maxFeistelDomain = 1 << 32

func newFeistel(n, seed uint64) feistel {
	f := feistel{n: n, half: 1}
	for 1<<(2*f.half) < n {
		f.half++
	}
	f.mask = 1<<f.half - 1
	s := seed
	for i := range f.keys {
		s += 0x9e3779b97f4a7c15
		f.keys[i] = mix64(s)
		f.tab[i] = make([]uint16, f.mask+1)
		for r := range f.tab[i] {
			f.tab[i][r] = uint16(mix64(uint64(r)^f.keys[i]) & f.mask)
		}
	}
	return f
}

// mix64 is the splitmix64 finalizer — a cheap, well-mixed 64-bit hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// applyBatch replaces every xs[j] (at most fillBlock of them) by
// apply(xs[j]), reading the round functions from the tables. A first loop
// encrypts every cell once and does nothing else, so the CPU overlaps the
// cells' table-lookup chains; a second collects the cells that landed
// outside [0,n), and only those are re-encrypted, until none remain — the
// same walk, cell by cell, as apply. A pass keeps n/4^half of its cells, so
// a column costs 4^half/n in [1,4) passes per cell.
func (f *feistel) applyBatch(xs []uint64) {
	if f.n < 2 {
		return
	}
	half, n := f.half&63, f.n
	t0, t1, t2, t3 := f.tab[0], f.tab[1], f.tab[2], f.tab[3]
	for j, x := range xs {
		xs[j] = encryptTab(x, half, t0, t1, t2, t3)
	}
	var pend [fillBlock]uint16 // cells still outside [0,n)
	np := 0
	for j, x := range xs {
		pend[np] = uint16(j) // written either way, kept only if x is outside
		if x >= n {
			np++
		}
	}
	for np > 0 {
		m := 0
		for _, j := range pend[:np] {
			x := encryptTab(xs[j], half, t0, t1, t2, t3)
			xs[j] = x
			pend[m] = j
			if x >= n {
				m++
			}
		}
		np = m
	}
}

// encryptTab is encrypt with the round functions read from the tables. x
// lies in the 2*half-bit domain, so every index is below 2^half.
func encryptTab(x uint64, half uint, t0, t1, t2, t3 []uint16) uint64 {
	l, r := x>>half, x&(1<<half-1)
	l, r = r, l^uint64(t0[r])
	l, r = r, l^uint64(t1[r])
	l, r = r, l^uint64(t2[r])
	l, r = r, l^uint64(t3[r])
	return l<<half | r
}

// encrypt is one pass of the 4-round network over the 2*half-bit domain: the
// scalar definition the tables are built from.
func encrypt(x uint64, half uint, mask, k0, k1, k2, k3 uint64) uint64 {
	l, r := x>>half, x&mask
	l, r = r, l^(mix64(r^k0)&mask)
	l, r = r, l^(mix64(r^k1)&mask)
	l, r = r, l^(mix64(r^k2)&mask)
	l, r = r, l^(mix64(r^k3)&mask)
	return l<<half | r
}

func (f feistel) apply(x uint64) uint64 {
	if f.n < 2 {
		return x
	}
	for {
		x = encrypt(x, f.half, f.mask, f.keys[0], f.keys[1], f.keys[2], f.keys[3])
		if x < f.n {
			return x
		}
	}
}
