// Package nonkey implements Mirage's non-key generator (Section 4): it
// populates every non-key column and instantiates every selection-related
// parameter so that all selection cardinality constraints (SCCs) hold
// exactly on the synthetic database.
//
// The pipeline per table is
//
//	decouple   — logical constraints (LCCs) are reduced to unary (UCC) and
//	             arithmetic (ACC) constraints via the set-transforming rules
//	             of Section 4.1 (Table 3 boundary values, De Morgan rule 3);
//	             multi-equality residues become bound-row constraints.
//	distribute — per column, UCCs define an exact integer CDF; point
//	             constraints are bin-packed into the CDF ranges and every
//	             parameter is instantiated (Section 4.2).
//	materialize— column data is generated from the CDF in row chunks, with
//	             bound rows placed at the head of the table (Section 4.3).
//	arithmetic — ACC parameters are chosen as order statistics of the
//	             generated data, optionally on a Hoeffding-sized sample
//	             (Section 4.4).
//
// All bookkeeping is in exact integer row counts, which is what makes
// Theorem 6.1 (zero error for every UCC) hold verbatim in this
// implementation.
package nonkey

import (
	"fmt"
	"math"
	"time"

	"github.com/dbhammer/mirage/internal/genplan"
	"github.com/dbhammer/mirage/internal/relalg"
)

// Config tunes the generator.
type Config struct {
	// SampleSize caps the number of rows used to instantiate ACC
	// parameters; tables at most this large are evaluated exactly.
	// The paper's default is 4M rows for an error bound of 0.1% at 99.9%
	// confidence (Hoeffding); this repo's scaled default is 40k.
	SampleSize int
	// Seed drives all pseudo-random choices (value shuffling, sampling).
	// Every stream is derived from Seed plus the table/column (or ACC
	// index) it serves, never from a shared sequential source, so the
	// generated bytes are independent of table and column execution order.
	Seed int64
	// Parallelism is the number of workers generating independent tables
	// (and, within a table, independent columns) concurrently. Values <= 1
	// generate sequentially; the output is byte-identical either way.
	Parallelism int
	// Retain, when non-nil, switches generation to out-of-core mode: per
	// table, only the listed columns are stored in the database (the
	// columns downstream stages actually read — FK join inputs, predicate
	// columns), the primary key stays unmaterialized (a dense 1..Rows
	// domain regenerated on export), and everything else is regenerable
	// chunk by chunk through the retained TablePlans. Columns sampled by
	// arithmetic constraints are materialized transiently and dropped as
	// soon as their parameters are instantiated. Nil retains everything.
	Retain map[string]map[string]bool
}

// DefaultSampleSize mirrors the paper's 4M-row default scaled by the repo's
// global 100x shrink.
const DefaultSampleSize = 40_000

// HoeffdingSampleSize returns the sample size needed for relative error
// bound delta at the given confidence level alpha (Section 4.4):
// (ln 2 − ln(1−α)) / (2δ²).
func HoeffdingSampleSize(delta, alpha float64) int {
	if delta <= 0 || alpha <= 0 || alpha >= 1 {
		return DefaultSampleSize
	}
	n := (math.Ln2 - math.Log(1-alpha)) / (2 * delta * delta)
	return int(n) + 1
}

// Stats records the non-key generator's stage timings and footprint for the
// Fig. 16 experiment.
type Stats struct {
	DecoupleTime time.Duration // LCC -> UCC/ACC reduction
	DistribTime  time.Duration // CDF construction + bin packing + params
	GenTime      time.Duration // data materialization (GD)
	SampleTime   time.Duration // ACC sampling
	ACCTime      time.Duration // ACC parameter search
	UCCs         int
	ACCs         int
	Bounds       int
}

// Add accumulates s2 into s.
func (s *Stats) Add(s2 Stats) {
	s.DecoupleTime += s2.DecoupleTime
	s.DistribTime += s2.DistribTime
	s.GenTime += s2.GenTime
	s.SampleTime += s2.SampleTime
	s.ACCTime += s2.ACCTime
	s.UCCs += s2.UCCs
	s.ACCs += s2.ACCs
	s.Bounds += s2.Bounds
}

// TablePlan is the fully instantiated generation plan of one table: per-
// column value distributions, bound-row blocks, and pending arithmetic
// constraints.
type TablePlan struct {
	Table *relalg.Table
	Cols  map[string]*ColumnPlan
	// Bound blocks sit at the head of the table in order.
	Bound []BoundBlock
	// ACCs await parameter instantiation after materialization.
	ACCs  []accSpec
	Stats Stats
	// gens holds the chunk-addressable layout of every non-key column,
	// built by Materialize; Fill uses it to regenerate unretained columns
	// on export.
	gens map[string]*ColumnGen
}

// ColumnPlan is the exact value distribution of one column: Counts[i] rows
// carry cardinality-space value i+1.
type ColumnPlan struct {
	Col    *relalg.Column
	Rows   int64
	Counts []int64
}

// BoundBlock pins Card rows to carry Items' (column, value) pairs together
// (the ∩ V_e^j residue of Theorem 4.4).
type BoundBlock struct {
	Items []BoundItem
	Card  int64
}

// BoundItem is one (column, value) cell of a bound block.
type BoundItem struct {
	Col   string
	Value int64
}

type accSpec struct {
	pred *relalg.ArithPred
	card int64
}

// PlanTable runs decoupling and distribution for one table: after it
// returns, every selection parameter of the table is instantiated and the
// exact per-column value counts are fixed.
func PlanTable(cfg Config, tbl *relalg.Table, sels []*genplan.SelCons) (*TablePlan, error) {
	tp := &TablePlan{Table: tbl, Cols: make(map[string]*ColumnPlan)}

	start := time.Now()
	dec, err := decoupleAll(tbl, sels)
	if err != nil {
		return nil, fmt.Errorf("nonkey: table %s: %w", tbl.Name, err)
	}
	tp.Stats.DecoupleTime = time.Since(start)
	tp.Stats.ACCs = len(dec.accs)
	tp.Stats.Bounds = len(dec.bounds)

	start = time.Now()
	for _, col := range tbl.NonKeys() {
		cp, err := distribute(cfg, tbl, col, dec.colCons[col.Name])
		if err != nil {
			return nil, fmt.Errorf("nonkey: column %s.%s: %w", tbl.Name, col.Name, err)
		}
		tp.Cols[col.Name] = cp
		tp.Stats.UCCs += len(dec.colCons[col.Name].fcons) + len(dec.colCons[col.Name].points)
	}
	// Resolve bound blocks now that every point has a value; items whose
	// anchor was displaced by a conflicting sibling constraint are dropped
	// best-effort (their deviation is bounded and surfaces in validation).
	for _, b := range dec.bounds {
		blk := BoundBlock{Card: b.card}
		for _, it := range b.items {
			if it.point.value <= 0 {
				continue
			}
			blk.Items = append(blk.Items, BoundItem{Col: it.col, Value: it.point.value})
		}
		if len(blk.Items) > 0 {
			tp.Bound = append(tp.Bound, blk)
		}
	}
	for _, a := range dec.accs {
		tp.ACCs = append(tp.ACCs, *a)
	}
	tp.Stats.DistribTime = time.Since(start)
	return tp, nil
}
