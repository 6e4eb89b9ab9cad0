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
// materialized column data (Section 4.4): the arithmetic function is
// evaluated over the rows (or over a sample of Config.SampleSize rows for
// large tables, per Hoeffding's inequality) and the parameter becomes the
// order statistic that makes the constrained count exact. Only the sampled
// rows of the columns an expression reads are widened.
func InstantiateACCs(cfg Config, tp *TablePlan, data *storage.TableData) error {
	R := int(tp.Table.Rows)
	for i := range tp.ACCs {
		acc := &tp.ACCs[i]
		start := time.Now()
		sample := sampleRows(cfg, R, int64(i))
		b, err := gatherSample(data, acc.pred.Columns(nil), sample)
		if err != nil {
			return err
		}
		expr, err := relalg.BindArith(acc.pred.Expr, b)
		if err != nil {
			return err
		}
		vals := make([]int64, len(sample))
		for j := range sample {
			vals[j] = expr.EvalRow(int32(j))
		}
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

// gatherSample widens the sampled rows of each of cols, a stored column of
// data: position j of a buffer reads sample row j.
func gatherSample(data *storage.TableData, cols []string, sample []int) (relalg.Buffers, error) {
	rows := make([]int32, len(sample))
	for j, r := range sample {
		rows[j] = int32(r)
	}
	var b relalg.Buffers
	for _, name := range cols {
		if slices.Contains(b.Names, name) {
			continue
		}
		c, err := data.Column(name)
		if err == nil && c == nil {
			err = fmt.Errorf("nonkey: column %s.%s: %w", data.Meta.Name, name, storage.ErrNotMaterialized)
		}
		if err != nil {
			return b, err
		}
		vals := make([]int64, len(rows))
		c.Gather(vals, rows)
		b.Names = append(b.Names, name)
		b.Vals = append(b.Vals, vals)
	}
	return b, nil
}

// sampleRows returns all row indices when the table fits the sample budget,
// or a uniform sample without replacement otherwise.
func sampleRows(cfg Config, rows int, salt int64) []int {
	limit := cfg.SampleSize
	if limit <= 0 {
		limit = DefaultSampleSize
	}
	if rows <= limit {
		all := make([]int, rows)
		for i := range all {
			all[i] = i
		}
		return all
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ (salt + 0x9e3779b97f4a7c)))
	perm := rng.Perm(rows)[:limit]
	sort.Ints(perm)
	return perm
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

// EvalSelection evaluates a predicate over materialized table data and
// returns the matching row count — the generator's self-check used by tests
// and the validation harness. It runs the bound batch path, falling back to
// row-at-a-time closures only if binding fails (e.g. a column the table
// doesn't own, which EvalPred reports by panicking anyway).
func EvalSelection(data *storage.TableData, pred relalg.Predicate) int64 {
	rows := data.Rows()
	bound, err := relalg.BindPred(pred, data, false)
	if err != nil {
		var n int64
		for r := 0; r < rows; r++ {
			if pred.EvalPred(data.RowReader(r), false) {
				n++
			}
		}
		return n
	}
	var n int64
	for r := 0; r < rows; r++ {
		if bound.EvalRow(int32(r)) {
			n++
		}
	}
	return n
}
