// Package workload defines the three evaluation scenarios of the paper's
// Section 8 — SSB (13 queries), TPC-H (22 queries) and a TPC-DS-style
// 100-query workload — as self-contained specifications: schema, value
// codecs, a deterministic generator for the "in-production" database, and
// the query templates in plan-DSL form.
//
// Row counts follow the official benchmarks scaled down 100x, so SF=1 here
// corresponds to roughly 10MB of data and the experiments run on a laptop;
// the SF knob scales linearly as in the paper (their runs use SF=200..1000).
package workload

import (
	"fmt"

	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/sqlparse"
	"github.com/dbhammer/mirage/internal/storage"
)

// Spec is one benchmark scenario.
type Spec struct {
	Name string
	// NewSchema builds the schema at a scale factor (row counts scale;
	// domain sizes are capped at row counts).
	NewSchema func(sf float64) *relalg.Schema
	// Codecs maps columns to display codecs (shared across scale factors).
	Codecs storage.CodecSet
	// DSL holds the query templates.
	DSL string
	// QueryCount is the advertised number of templates.
	QueryCount int
}

// Registry returns all built-in scenarios.
func Registry() []*Spec {
	return []*Spec{SSB(), TPCH(), TPCDS()}
}

// ByName resolves a scenario.
func ByName(name string) (*Spec, error) {
	for _, s := range Registry() {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown scenario %q (have ssb, tpch, tpcds)", name)
}

// Materialize builds a scenario end to end at one scale factor: the schema,
// a deterministic "in-production" database instance, and the parsed query
// templates (original parameter values, no annotations). Benchmark and
// equivalence-test harnesses share it so they exercise the exact inputs the
// pipeline sees.
func Materialize(spec *Spec, sf float64, seed int64) (*relalg.Schema, *storage.DB, []*relalg.AQT, error) {
	schema := spec.NewSchema(sf)
	db, err := GenerateOriginal(schema, seed)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("workload: materialize %s: %w", spec.Name, err)
	}
	p, err := sqlparse.NewParser(schema, spec.Codecs)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("workload: materialize %s: %w", spec.Name, err)
	}
	templates, err := p.ParseWorkload(spec.DSL)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("workload: materialize %s: %w", spec.Name, err)
	}
	return schema, db, templates, nil
}

// scale multiplies a base row count by the scale factor with a floor of 1.
func scale(base int64, sf float64) int64 {
	n := int64(float64(base) * sf)
	if n < 1 {
		return 1
	}
	return n
}

// capDomain keeps a domain within the table's row count (every domain value
// must appear at least once).
func capDomain(domain, rows int64) int64 {
	if domain > rows {
		return rows
	}
	if domain < 1 {
		return 1
	}
	return domain
}

// col is shorthand for a non-key column.
func col(name string, t relalg.ColType, domain, rows int64) relalg.Column {
	return relalg.Column{Name: name, Type: t, Kind: relalg.NonKey, DomainSize: capDomain(domain, rows)}
}

// pk and fk are shorthands for key columns.
func pk(name string) relalg.Column {
	return relalg.Column{Name: name, Kind: relalg.PrimaryKey, Type: relalg.TInt}
}

func fk(name, refs string) relalg.Column {
	return relalg.Column{Name: name, Kind: relalg.ForeignKey, Refs: refs, Type: relalg.TInt}
}
