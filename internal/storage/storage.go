// Package storage provides the in-memory columnar representation of both the
// "in-production" original database and the synthetic database produced by
// Mirage. Every column stores cardinality-space int64 values (Section 4.2);
// value codecs translate between those integers and the display values
// (dates, decimals, dictionary strings) at import/export boundaries only.
package storage

import (
	"fmt"
	"math"

	"github.com/dbhammer/mirage/internal/relalg"
)

// Null is the storage sentinel for SQL NULL. It coincides with
// relalg.NullValue so that predicate evaluation over stored values follows
// the same NULL conventions as parameter boundaries.
const Null int64 = math.MinInt64

// TableData holds one table's rows in columnar form. Column slices are
// row-aligned; primary-key columns hold 1..Rows() by convention.
type TableData struct {
	Meta *relalg.Table
	cols map[string][]int64
	// rows is the declared row count for tables generated out-of-core,
	// where only a subset of columns is materialized (the rest are
	// regenerated on export). Zero means "derive from the columns".
	rows int
}

// NewTableData allocates an empty table for the given metadata.
func NewTableData(meta *relalg.Table) *TableData {
	cols := make(map[string][]int64, len(meta.Columns))
	for i := range meta.Columns {
		cols[meta.Columns[i].Name] = nil
	}
	return &TableData{Meta: meta, cols: cols}
}

// Rows returns the table's row count: the declared count when SetRows was
// called (out-of-core tables materialize only a column subset), otherwise
// the length of the first materialized column.
func (t *TableData) Rows() int {
	if t.rows > 0 {
		return t.rows
	}
	for i := range t.Meta.Columns {
		if c := t.cols[t.Meta.Columns[i].Name]; c != nil {
			return len(c)
		}
	}
	return 0
}

// SetRows declares the table's row count independently of which columns are
// materialized. Generators running in out-of-core mode call it so that row
// counts (join domains, FK ranges) stay visible while payload columns are
// never stored.
func (t *TableData) SetRows(n int) { t.rows = n }

// Col returns the named column slice. It is the Must variant of Lookup,
// for generator-internal code whose column names come from the validated
// schema itself: an unknown name there is a programming error, so it
// panics. Paths fed by external input (query validation, export) use
// Lookup instead.
func (t *TableData) Col(name string) []int64 {
	c, ok := t.cols[name]
	if !ok {
		panic(fmt.Sprintf("storage: unknown column %s.%s", t.Meta.Name, name))
	}
	return c
}

// Lookup returns the named column slice, or an error for columns the
// schema does not define. It is the non-panicking variant of Col.
func (t *TableData) Lookup(name string) ([]int64, error) {
	c, ok := t.cols[name]
	if !ok {
		return nil, fmt.Errorf("storage: unknown column %s.%s", t.Meta.Name, name)
	}
	return c, nil
}

// SetCol replaces the named column slice.
func (t *TableData) SetCol(name string, vals []int64) {
	if _, ok := t.cols[name]; !ok {
		panic(fmt.Sprintf("storage: unknown column %s.%s", t.Meta.Name, name))
	}
	t.cols[name] = vals
}

// RowReader returns a closure reading the given row across columns, in the
// shape row-at-a-time predicate evaluation expects. Hot loops should prefer
// ResolveColumn with relalg's bound evaluation path, which resolves each
// column once instead of allocating a closure per row.
func (t *TableData) RowReader(row int) func(string) int64 {
	return func(col string) int64 { return t.Col(col)[row] }
}

// ResolveColumn implements relalg.ColumnBinder over the base table: row
// positions address column values directly (identity indirection, no pads).
func (t *TableData) ResolveColumn(col string) ([]int64, []int32, error) {
	c, ok := t.cols[col]
	if !ok {
		return nil, nil, fmt.Errorf("storage: unknown column %s.%s", t.Meta.Name, col)
	}
	return c, nil, nil
}

// FillPK fills the table's primary-key column with 1..n (auto-incrementing
// integers, Section 4.3) and returns the column.
func (t *TableData) FillPK(n int) []int64 {
	pk := t.Meta.PrimaryKey()
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	t.SetCol(pk.Name, vals)
	return vals
}

// CheckAligned verifies all materialized columns have the same length
// (unmaterialized columns of out-of-core tables are skipped), and that it
// matches the declared row count when one is set.
func (t *TableData) CheckAligned() error {
	n := -1
	if t.rows > 0 {
		n = t.rows
	}
	for i := range t.Meta.Columns {
		name := t.Meta.Columns[i].Name
		if t.cols[name] == nil {
			continue
		}
		if n == -1 {
			n = len(t.cols[name])
			continue
		}
		if len(t.cols[name]) != n {
			return fmt.Errorf("storage: table %s column %s has %d rows, want %d",
				t.Meta.Name, name, len(t.cols[name]), n)
		}
	}
	return nil
}

// DB is a database instance: one TableData per schema table.
type DB struct {
	Schema *relalg.Schema
	Tables map[string]*TableData
}

// NewDB allocates empty tables for every table of the schema.
func NewDB(schema *relalg.Schema) *DB {
	db := &DB{Schema: schema, Tables: make(map[string]*TableData, len(schema.Tables))}
	for _, t := range schema.Tables {
		db.Tables[t.Name] = NewTableData(t)
	}
	return db
}

// Table returns the named table's data. Like TableData.Col it is the Must
// variant — generator-internal code addresses tables straight from the
// schema, so an unknown name panics; externally-fed paths use Lookup.
func (db *DB) Table(name string) *TableData {
	t, ok := db.Tables[name]
	if !ok {
		panic(fmt.Sprintf("storage: unknown table %q", name))
	}
	return t
}

// Lookup returns the named table's data, or an error for tables the schema
// does not define. It is the non-panicking variant of Table.
func (db *DB) Lookup(name string) (*TableData, error) {
	t, ok := db.Tables[name]
	if !ok {
		return nil, fmt.Errorf("storage: unknown table %q", name)
	}
	return t, nil
}

// TotalRows sums materialized rows across tables.
func (db *DB) TotalRows() int {
	n := 0
	for _, t := range db.Tables {
		n += t.Rows()
	}
	return n
}

// Check validates row alignment of every table and referential integrity of
// every foreign key (each FK value must be a valid PK of the referenced
// table or Null).
func (db *DB) Check() error {
	for _, t := range db.Tables {
		if err := t.CheckAligned(); err != nil {
			return err
		}
		for _, fk := range t.Meta.ForeignKeys() {
			ref, err := db.Lookup(fk.Refs)
			if err != nil {
				return fmt.Errorf("storage: %s.%s references %w", t.Meta.Name, fk.Name, err)
			}
			refRows := int64(ref.Rows())
			fkVals, err := t.Lookup(fk.Name)
			if err != nil {
				return err
			}
			for i, v := range fkVals {
				if v == Null {
					continue
				}
				if v < 1 || v > refRows {
					return fmt.Errorf("storage: %s.%s row %d: fk value %d outside referenced %s pk range [1,%d]",
						t.Meta.Name, fk.Name, i, v, fk.Refs, refRows)
				}
			}
		}
	}
	return nil
}
