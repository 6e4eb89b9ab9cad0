// Package storage provides the in-memory columnar representation of both the
// "in-production" original database and the synthetic database produced by
// Mirage. Every column stores cardinality-space int64 values (Section 4.2);
// value codecs translate between those integers and the display values
// (dates, decimals, dictionary strings) at import/export boundaries only.
// Primary keys are never stored: a table's key is its row number plus one
// (Section 4.3), and TableData.Fill, the one place that rule lives, derives
// it for every reader.
package storage

import (
	"errors"
	"fmt"
	"math"

	"github.com/dbhammer/mirage/internal/relalg"
)

// Null is the storage sentinel for SQL NULL. It coincides with
// relalg.NullValue so that predicate evaluation over stored values follows
// the same NULL conventions as parameter boundaries.
const Null int64 = math.MinInt64

// TableData holds one table's rows in columnar form. Its row count is
// Meta.Rows; materialized column slices are that long and row-aligned.
// The primary key is never stored: row r's key is r+1 (auto-incrementing
// integers, Section 4.3), and Fill derives it.
type TableData struct {
	Meta *relalg.Table
	cols map[string][]int64
}

// NewTableData allocates an empty table for the given metadata.
func NewTableData(meta *relalg.Table) *TableData {
	cols := make(map[string][]int64, len(meta.Columns))
	for i := range meta.Columns {
		cols[meta.Columns[i].Name] = nil
	}
	return &TableData{Meta: meta, cols: cols}
}

// Rows returns the table's row count, Meta.Rows.
func (t *TableData) Rows() int { return int(t.Meta.Rows) }

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

// SetCol replaces the named column slice. The primary key is derived, never
// stored, so naming it panics as an unknown name does.
func (t *TableData) SetCol(name string, vals []int64) {
	if _, ok := t.cols[name]; !ok || t.isPK(name) {
		panic(fmt.Sprintf("storage: %s.%s is not a stored column", t.Meta.Name, name))
	}
	t.cols[name] = vals
}

// isPK reports whether col is the table's primary key.
func (t *TableData) isPK(col string) bool {
	pk := t.Meta.PrimaryKey()
	return pk != nil && pk.Name == col
}

// RowReader returns a closure reading the given row across columns, in the
// shape row-at-a-time predicate evaluation expects. Hot loops should prefer
// ResolveColumn with relalg's bound evaluation path, which resolves each
// column once instead of allocating a closure per row.
func (t *TableData) RowReader(row int) func(string) int64 {
	return func(col string) int64 {
		var v [1]int64
		if err := t.Fill(col, v[:], int64(row), int64(row)+1); err != nil {
			panic(err)
		}
		return v[0]
	}
}

// ResolveColumn implements relalg.ColumnBinder over the base table: row
// positions address column values directly (identity indirection, no pads).
// A column with no stored values — the primary key, or one retention
// dropped — is an ErrNotMaterialized error naming it.
func (t *TableData) ResolveColumn(col string) ([]int64, []int32, error) {
	c, err := t.Lookup(col)
	if err == nil && c == nil {
		err = fmt.Errorf("storage: column %s.%s: %w", t.Meta.Name, col, ErrNotMaterialized)
	}
	return c, nil, err
}

// ErrNotMaterialized is Fill's error for a column that has no stored values
// and is not the primary key: the caller has to regenerate it. Fill returns
// it unwrapped, so that the regenerating callers compare it without an
// allocation per chunk.
var ErrNotMaterialized = errors.New("storage: column not materialized")

// Fill writes rows [lo,hi) of the named column into dst[0:hi-lo]: a stored
// column is copied, the primary key is derived (row r holds r+1), and any
// other column is ErrNotMaterialized. A range outside the table or longer
// than dst is an error and leaves dst untouched.
func (t *TableData) Fill(col string, dst []int64, lo, hi int64) error {
	vals, err := t.Lookup(col)
	if err != nil {
		return err
	}
	if err := CheckFillRange(t.Meta.Name, col, t.Meta.Rows, len(dst), lo, hi); err != nil {
		return err
	}
	switch {
	case vals != nil:
		copy(dst, vals[lo:hi])
	case t.isPK(col):
		for r := lo; r < hi; r++ {
			dst[r-lo] = r + 1
		}
	default:
		return ErrNotMaterialized
	}
	return nil
}

// CheckAligned verifies that every materialized column holds Meta.Rows
// values.
func (t *TableData) CheckAligned() error {
	for i := range t.Meta.Columns {
		name := t.Meta.Columns[i].Name
		if c := t.cols[name]; c != nil && len(c) != t.Rows() {
			return fmt.Errorf("storage: table %s column %s has %d rows, want %d",
				t.Meta.Name, name, len(c), t.Rows())
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

// TotalRows sums the tables' row counts.
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
