package relalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkFilterBatch times one bound comparison over a selection vector of
// 64 Ki positions (a table pass's window) at 1, 50 and 99 % selectivity, per
// comparator, reporting ns/row. Each column draws a passing or a failing value
// per row with the selectivity's odds, so a loop that branched on the outcome
// would mispredict most at 50 %. "in" is a short IN list (ORed) and "in-dense"
// one of eight values (a bitset); "arith" compares a-b.
func BenchmarkFilterBatch(b *testing.B) {
	const n = 64 * 1024
	p := func(v int64) *Param { return &Param{ID: "p", Orig: v, Value: v, Instantiated: true} }
	plist := func(vs ...int64) *Param { return &Param{ID: "p", OrigList: vs, List: vs, Instantiated: true} }
	zero := make([]int64, n)
	preds := []struct {
		name string
		pred Predicate
	}{
		{"eq", &UnaryPred{Col: "a", Op: OpEq, P: p(50)}},
		{"ne", &UnaryPred{Col: "a", Op: OpNe, P: p(50)}},
		{"lt", &UnaryPred{Col: "a", Op: OpLt, P: p(50)}},
		{"le", &UnaryPred{Col: "a", Op: OpLe, P: p(50)}},
		{"gt", &UnaryPred{Col: "a", Op: OpGt, P: p(50)}},
		{"ge", &UnaryPred{Col: "a", Op: OpGe, P: p(50)}},
		{"in", &UnaryPred{Col: "a", Op: OpIn, P: plist(10, 20, 30, 40)}},
		{"in-dense", &UnaryPred{Col: "a", Op: OpIn, P: plist(10, 12, 14, 16, 18, 20, 22, 24)}},
		{"arith", &ArithPred{Expr: BinExpr{Op: Sub, L: ColRef{Col: "a"}, R: ColRef{Col: "z"}}, Op: OpLt, P: p(50)}},
	}
	rng := rand.New(rand.NewSource(1))
	for _, pc := range preds {
		for _, pct := range []int{1, 50, 99} {
			// Sort the values 1..100 into those that pass and those that fail.
			var pass, fail []int64
			for v := int64(1); v <= 100; v++ {
				row := func(col string) int64 {
					if col == "z" {
						return 0
					}
					return v
				}
				if pc.pred.EvalPred(row, false) {
					pass = append(pass, v)
				} else {
					fail = append(fail, v)
				}
			}
			col := make([]int64, n)
			for i := range col {
				if rng.Intn(100) < pct {
					col[i] = pass[rng.Intn(len(pass))]
				} else {
					col[i] = fail[rng.Intn(len(fail))]
				}
			}
			bound, err := BindPred(pc.pred, Buffers{Names: []string{"a", "z"}, Vals: [][]int64{col, zero}}, false)
			if err != nil {
				b.Fatal(err)
			}
			ident := make([]int32, n)
			for i := range ident {
				ident[i] = int32(i)
			}
			sel := make([]int32, n)
			b.Run(fmt.Sprintf("%s/sel=%d%%", pc.name, pct), func(b *testing.B) {
				for range b.N {
					copy(sel, ident)
					bound.FilterBatch(sel)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
			})
		}
	}
}
