package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/dbhammer/mirage/internal/storage"
)

// clampCase is one FK column for the domain oracle: its keys, every edge of
// the PK domain [1, nPK] and of the storage width among them, and the PK
// table's size.
type clampCase struct {
	name  string
	width int
	nPK   int
	keys  []int64
}

// clampCases stores 0, nPK, nPK+1 and the width's maximum in a column of
// every width, NULL in the int64 one, plus random keys in and around the
// domain; one nPK is a multiple of 64, so key nPK+1 would name a bit past
// the set's last word. nPK equals the width's maximum for uint8 and uint16;
// a key set over 2^32 rows would take 512 MiB, so the uint32 and int64
// columns hold their maximum as an out-of-domain key instead.
func clampCases(rng *rand.Rand) []clampCase {
	mk := func(name string, width, nPK int, top int64, extra ...int64) clampCase {
		keys := []int64{0, int64(nPK), int64(nPK) + 1, top, 1}
		keys = append(keys, extra...)
		for range 3000 {
			keys = append(keys, rng.Int63n(min(int64(nPK)+3, top)))
		}
		if top < int64(nPK)+1 {
			// nPK is the width's maximum: nPK+1 does not fit, so store
			// the largest in-domain key twice instead.
			keys[2] = top
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		return clampCase{name: name, width: width, nPK: nPK, keys: keys}
	}
	return []clampCase{
		mk("uint8", 1, 200, math.MaxUint8),
		mk("uint8 nPK=max", 1, math.MaxUint8, math.MaxUint8),
		mk("uint8 nPK=192", 1, 192, math.MaxUint8), // the set ends on a word boundary
		mk("uint16", 2, 2556, math.MaxUint16),
		mk("uint16 nPK=max", 2, math.MaxUint16, math.MaxUint16),
		mk("uint32", 4, 70000, math.MaxUint32),
		mk("int64", 8, 3000, math.MaxInt64, storage.Null, -5, math.MinInt64+1),
	}
}

// TestKeepFKClampOracle holds the probe kernel to the rule it replaced: a row
// passes when its foreign key k lies in [1, nPK] and k-1's bit is set. The
// reduction's filter and Count's probe must keep exactly those rows, at every
// storage width, whatever the selectivity of the key set.
func TestKeepFKClampOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range clampCases(rng) {
		fk := storage.NewColumn(tc.keys)
		if fk.Width() != tc.width {
			t.Fatalf("%s: column stored %d bytes wide, want %d", tc.name, fk.Width(), tc.width)
		}
		for _, p := range []float64{0, 0.5, 1} {
			set := newBitset(tc.nPK)
			for k := range tc.nPK {
				if rng.Float64() < p {
					set.set(k)
				}
			}
			in := func(k int64) bool { return k >= 1 && k <= int64(tc.nPK) && set.test(int(k-1)) }
			rows := make([]int32, 0, len(tc.keys))
			for r := range tc.keys {
				if rng.Intn(4) > 0 {
					rows = append(rows, int32(r))
				}
			}
			var want []int32
			for _, r := range rows {
				if in(tc.keys[r]) {
					want = append(want, r)
				}
			}
			name := fmt.Sprintf("%s p=%v", tc.name, p)

			src := slices.Clone(rows)
			if got := (rowTest{fk: fk, n: tc.nPK, set: set}).filter(src, src); !slices.Equal(got, want) {
				t.Fatalf("%s: filter kept %d rows, want %d", name, len(got), len(want))
			}

			// Count's probe, unweighted and weighted on both sides, so
			// every output is checked against the survivors' counts.
			for _, weighted := range []bool{false, true} {
				r, mL := mult{rows: rows}, []int64(nil)
				if weighted {
					r.cnt = make([]int64, len(rows))
					for i := range r.cnt {
						r.cnt[i] = 1 + int64(rng.Intn(3))
					}
					mL = make([]int64, tc.nPK)
					for k := range mL {
						mL[k] = 1 + int64(rng.Intn(3))
					}
				}
				pr := &probe{r: r, lSet: set, mL: mL, nPK: tc.nPK, toFK: true,
					sel: make([]int32, blockRows), keys: make([]int64, blockRows),
					matched: newBitset(tc.nPK), cR: make([]int64, tc.nPK), out: newMultOut(len(rows))}
				switch fk.Width() {
				case 1:
					probeFK(pr, storage.Values[uint8](fk))
				case 2:
					probeFK(pr, storage.Values[uint16](fk))
				case 4:
					probeFK(pr, storage.Values[uint32](fk))
				default:
					probeFK(pr, storage.Values[int64](fk))
				}
				var card int64
				matched := newBitset(tc.nPK)
				cR := make([]int64, tc.nPK)
				var out []int64
				for i, row := range rows {
					k := tc.keys[row]
					if !in(k) {
						continue
					}
					n := r.at(i)
					if mL != nil {
						n *= mL[k-1]
					}
					card += n
					matched.set(int(k - 1))
					cR[k-1] += r.at(i)
					out = append(out, n)
				}
				got := make([]int64, len(pr.out.m.rows))
				for i := range got {
					got[i] = pr.out.m.at(i)
				}
				if pr.card != card || !slices.Equal(pr.matched, matched) || !slices.Equal(pr.cR, cR) ||
					!slices.Equal(pr.out.m.rows, want) || !slices.Equal(got, out) {
					t.Fatalf("%s weighted=%v: probe card %d, %d matched, %d output rows; want %d, %d, %d",
						name, weighted, pr.card, pr.matched.count(), len(pr.out.m.rows), card, matched.count(), len(want))
				}
			}
		}
	}
}

// TestGroupSetSizedByTuples: a groupSet takes the bitset only where it holds
// at most eight bits a tuple, so a few tuples over a large domain product
// count in a map rather than clearing and scanning a large bitset.
func TestGroupSetSizedByTuples(t *testing.T) {
	bounds := []int64{7, 1000} // 8 × 1001 = 8008 bits
	if g := newGroupSet(bounds, 1001); g.radix == nil {
		t.Fatal("8008 bits for 1001 tuples: want the bitset")
	}
	if g := newGroupSet(bounds, 1000); g.radix != nil {
		t.Fatal("8008 bits for 1000 tuples: want the map")
	}
	if g := newGroupSet(bounds, 0); g.radix != nil || g.len() != 0 {
		t.Fatal("no tuples: want an empty map")
	}
}

// TestGroupSetMatchesMap: the bitset groupSet counts the groups the map of
// groupKeys counts — NULLs in any column, one to four columns at domains up
// to foldBase-1 — and a value outside its domain hands the count to the map
// mid-stream without losing or merging a group. Where the domains are too
// large or there are five columns, the set is a map from the start.
func TestGroupSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		bounds []int64
		dense  bool
		spill  []int64 // one block holds this out-of-domain value in column 1
	}{
		{[]int64{7}, true, nil},
		{[]int64{7, 1000}, true, nil},
		{[]int64{25, 25, 7}, true, nil},
		{[]int64{3, 5, 2, 9}, true, nil},
		{[]int64{foldBase - 1, 3}, true, nil},
		{[]int64{0, 12}, true, nil}, // a column that only reads NULL
		{[]int64{25, 25, 7}, true, []int64{26}},
		{[]int64{25, 25, 7}, true, []int64{0}},
		{[]int64{25, 25, 7}, true, []int64{-1}},
		{[]int64{foldBase, 2}, false, nil},
		{[]int64{5000, 5000}, false, nil},
		{[]int64{2, 2, 2, 2, 2}, false, nil},
	}
	for ci, tc := range cases {
		g := newGroupSet(tc.bounds, 1<<20)
		if (g.radix != nil) != tc.dense {
			t.Fatalf("case %d %v: dense %v, want %v", ci, tc.bounds, g.radix != nil, tc.dense)
		}
		want := make(map[groupKey]struct{})
		cols := make([][]int64, len(tc.bounds))
		for blk := range 6 {
			n := 1 + rng.Intn(blockRows)
			for c, b := range tc.bounds {
				cols[c] = make([]int64, n)
				for i := range cols[c] {
					switch {
					case b == 0 || rng.Intn(8) == 0:
						cols[c][i] = storage.Null
					default:
						// Skew towards the domain's ends.
						cols[c][i] = []int64{1, b, 1 + rng.Int63n(b)}[rng.Intn(3)]
					}
				}
			}
			if tc.spill != nil && blk == 3 {
				cols[1][n/2] = tc.spill[0]
			}
			for i := range n {
				k := groupKey{a: cols[0][i]}
				for _, c := range cols[1:] {
					k = k.fold(c[i])
				}
				want[k] = struct{}{}
			}
			g.add(cols)
		}
		if tc.spill != nil && g.radix != nil {
			t.Fatalf("case %d %v: an out-of-domain value left the set dense", ci, tc.bounds)
		}
		if got := g.len(); got != int64(len(want)) {
			t.Fatalf("case %d %v: %d groups, the map of groupKeys holds %d", ci, tc.bounds, got, len(want))
		}
	}
}

// BenchmarkProbeKernel times keepFK, the probe's filter, over 2.4 M uint16
// foreign keys into a key set of 2 556 PK rows (SSB's lineorder against
// supplier at the annotation scale) at 14, 50 and 86 % of the PK rows set,
// a block of blockRows rows per call as probeFK and the reduction run it.
func BenchmarkProbeKernel(b *testing.B) {
	const rows, nPK = 2_400_000, 2556
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint16, rows)
	src := make([]int32, rows)
	for i := range keys {
		keys[i] = uint16(1 + rng.Intn(nPK))
		src[i] = int32(i)
	}
	fk := storage.NewColumn(keys)
	sel := make([]int32, blockRows)
	for _, pct := range []int{14, 50, 86} {
		set := newBitset(nPK)
		for k := range nPK {
			if rng.Intn(100) < pct {
				set.set(k)
			}
		}
		b.Run(fmt.Sprintf("sel=%d%%", pct), func(b *testing.B) {
			for range b.N {
				for lo := 0; lo < rows; lo += blockRows {
					keepFKCol(sel, src[lo:min(lo+blockRows, rows)], fk, set, nPK)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}
