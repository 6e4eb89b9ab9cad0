package nonkey

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
)

// InstantiateACCs chooses every arithmetic-constraint parameter from the
// generated column data (Section 4.4): the arithmetic function is evaluated
// over the rows (or over a sample of Config.SampleSize rows for large
// tables, per Hoeffding's inequality) and the parameter becomes the order
// statistic that makes the constrained count exact. The sampled rows of the
// columns an expression reads are gathered column by column through the
// table's PlanSource: a stored column is read from data and any other from
// its layout, so no column has to be stored for an ACC. It requires a prior
// Materialize call on tp.
func InstantiateACCs(cfg Config, tp *TablePlan, data *storage.TableData) error {
	src := NewPlanSource(data, tp)
	R := int(tp.Table.Rows)
	for i := range tp.ACCs {
		acc := &tp.ACCs[i]
		start := time.Now()
		sample := sampleRows(cfg, R, int64(i))
		b, err := storage.FillRows(src.Gather, acc.pred.Columns(nil), sample)
		if err != nil {
			return err
		}
		expr, err := relalg.BindArith(acc.pred.Expr, b)
		if err != nil {
			return err
		}
		// The buffers hold the sampled rows at positions 0..len(sample)-1;
		// the row numbers, gathered already, are overwritten with those
		// positions.
		pos := sample
		for j := range pos {
			pos[j] = int32(j)
		}
		vals := make([]int64, len(pos))
		expr.EvalBatch(vals, pos)
		slices.Sort(vals)
		tp.Stats.SampleTime += time.Since(start)

		start = time.Now()
		target := acc.card
		if len(sample) < R && R > 0 {
			// Scale the target to the sample; Hoeffding bounds the error.
			target = (acc.card*int64(len(sample)) + int64(R)/2) / int64(R)
		}
		p, _ := bestParam(vals, acc.pred.Op, target)
		acc.pred.P.Set(p)
		tp.Stats.ACCTime += time.Since(start)
	}
	return nil
}

// sampleRows returns all row indices when the table fits the sample budget,
// or a uniform sample without replacement otherwise, ascending.
func sampleRows(cfg Config, rows int, salt int64) []int32 {
	limit := cfg.SampleSize
	if limit <= 0 {
		limit = DefaultSampleSize
	}
	if rows <= limit {
		all := make([]int32, rows)
		for i := range all {
			all[i] = int32(i)
		}
		return all
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ (salt + 0x9e3779b97f4a7c)))
	sample := make([]int32, limit)
	for j, r := range permPrefix(rng, rows, limit) {
		sample[j] = int32(r)
	}
	slices.Sort(sample)
	return sample
}

// permPrefix returns rng.Perm(n)[:k], leaving rng in the state Perm leaves
// it, in O(k) memory: it makes Perm's rng.Intn(i+1) call for every i in
// [0,n) and keeps only the writes that land in a slot below k. Perm reads
// slot j only to write slot i >= j, so a slot at or above k never feeds one
// below it.
func permPrefix(rng *rand.Rand, n, k int) []int {
	m := make([]int, k)
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		if i < k {
			m[i] = m[j]
		}
		if j < k {
			m[j] = i
		}
	}
	return m
}

// bestParam returns the parameter value whose achieved count is closest to
// target for the comparator over the sorted value slice, along with that
// achieved count. Ties in the data can make the exact target unreachable;
// the closest achievable count is chosen (and, with full-table evaluation,
// exactness holds whenever the value distribution permits it).
func bestParam(sorted []int64, op relalg.CompareOp, target int64) (int64, int64) {
	n := int64(len(sorted))
	count := func(p int64) int64 {
		switch op {
		case relalg.OpGt:
			return n - int64(upperBound(sorted, p))
		case relalg.OpGe:
			return n - int64(lowerBound(sorted, p))
		case relalg.OpLt:
			return int64(lowerBound(sorted, p))
		case relalg.OpLe:
			return int64(upperBound(sorted, p))
		}
		panic(fmt.Sprintf("nonkey: ACC comparator %v", op))
	}
	if n == 0 {
		return 0, 0
	}
	// Candidate parameters: around each distinct value the count function
	// changes; scanning v−1, v, v+1 for every distinct v covers all
	// achievable counts.
	bestP, bestC := sorted[0]-1, count(sorted[0]-1)
	consider := func(p int64) {
		c := count(p)
		if abs64(c-target) < abs64(bestC-target) {
			bestP, bestC = p, c
		}
	}
	prev := sorted[0]
	consider(prev)
	consider(prev + 1)
	for _, v := range sorted[1:] {
		if v != prev {
			consider(v - 1)
			consider(v)
			consider(v + 1)
			prev = v
		}
	}
	return bestP, bestC
}

func lowerBound(s []int64, p int64) int {
	return sort.Search(len(s), func(i int) bool { return s[i] >= p })
}

func upperBound(s []int64, p int64) int {
	return sort.Search(len(s), func(i int) bool { return s[i] > p })
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
