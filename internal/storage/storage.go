// Package storage provides the in-memory columnar representation of both the
// "in-production" original database and the synthetic database produced by
// Mirage. Every value is a cardinality-space integer (Section 4.2): a non-key
// value lies in [1, |R|_A] and a foreign key in [1, |R_ref|], so a column is
// stored at the narrowest of uint8, uint16, uint32 and int64 that holds every
// value it is given, and every read widens to int64 (TableData.Fill,
// Column.Fill, Column.Gather). Value codecs translate between those integers
// and the display values (dates, decimals, dictionary strings) at
// import/export boundaries only. Primary keys are never stored: a table's
// key is its row number plus one (Section 4.3), and TableData.Fill, the one
// place that rule lives, derives it for every reader.
package storage

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/dbhammer/mirage/internal/relalg"
)

// Null is the storage sentinel for SQL NULL. It coincides with
// relalg.NullValue so that predicate evaluation over stored values follows
// the same NULL conventions as parameter boundaries. A column holding it is
// stored int64-wide.
const Null int64 = math.MinInt64

// TableData holds one table's rows in columnar form. Its row count is
// Meta.Rows; stored columns are that long and row-aligned. The primary key
// is never stored: row r's key is r+1 (auto-incrementing integers, Section
// 4.3), and Fill derives it. Storing distinct columns from several
// goroutines at once is safe; everything else belongs to one goroutine at a
// time.
type TableData struct {
	Meta *relalg.Table
	pos  map[string]int // column name -> index into cols (and Meta.Columns)
	cols []*Column      // nil: not stored
}

// NewTableData allocates an empty table for the given metadata.
func NewTableData(meta *relalg.Table) *TableData {
	pos := make(map[string]int, len(meta.Columns))
	for i := range meta.Columns {
		pos[meta.Columns[i].Name] = i
	}
	return &TableData{Meta: meta, pos: pos, cols: make([]*Column, len(meta.Columns))}
}

// Rows returns the table's row count, Meta.Rows.
func (t *TableData) Rows() int { return int(t.Meta.Rows) }

// Column returns the named column as stored, or nil for a column storage
// does not hold (the primary key, or one retention dropped). An unknown
// name is an error.
func (t *TableData) Column(name string) (*Column, error) {
	i, ok := t.pos[name]
	if !ok {
		return nil, fmt.Errorf("storage: unknown column %s.%s", t.Meta.Name, name)
	}
	return t.cols[i], nil
}

// Col returns a fresh copy of the named column widened to int64, or nil for
// a column that is not stored (the primary key, or one retention dropped).
// Column names come from the validated schema itself, so an unknown name is
// a programming error and panics. It is the one whole-column widening: hot
// readers use Fill or Column, which copy nothing whole.
func (t *TableData) Col(name string) []int64 {
	c, err := t.Column(name)
	if err != nil {
		panic(err.Error())
	}
	if c == nil {
		return nil
	}
	vals := make([]int64, c.Len())
	c.Fill(vals, 0)
	return vals
}

// SetCol stores vals as the named column, at the narrowest width that holds
// them (NewColumn); nil drops the column. The primary key is derived, never
// stored, so naming it panics as an unknown name does. Distinct columns may
// be stored concurrently.
func (t *TableData) SetCol(name string, vals []int64) {
	if vals == nil {
		t.store(name, nil)
		return
	}
	t.store(name, NewColumn(vals))
}

// SetColumn stores c, a column MakeColumn allocated and its writer filled, as
// the named column. It is kept as SetCol keeps a slice: at the narrowest
// width that holds its values, with their range recorded.
func (t *TableData) SetColumn(name string, c *Column) { t.store(name, c.settle()) }

// store is the one way a column gets into storage: c becomes the named
// column, and nil drops it.
func (t *TableData) store(name string, c *Column) {
	i, ok := t.pos[name]
	if !ok || t.isPK(name) {
		panic(fmt.Sprintf("storage: %s.%s is not a stored column", t.Meta.Name, name))
	}
	t.cols[i] = c
}

// isPK reports whether col is the table's primary key.
func (t *TableData) isPK(col string) bool {
	pk := t.Meta.PrimaryKey()
	return pk != nil && pk.Name == col
}

// ErrNotMaterialized is Fill's error for a column that has no stored values
// and is not the primary key: the caller has to regenerate it. Fill returns
// it unwrapped, so that the regenerating callers compare it without an
// allocation per chunk.
var ErrNotMaterialized = errors.New("storage: column not materialized")

// Fill writes rows [lo,hi) of the named column into dst[0:hi-lo]: a stored
// column is widened, the primary key is derived (row r holds r+1), and any
// other column is ErrNotMaterialized. A range outside the table or longer
// than dst is an error and leaves dst untouched.
func (t *TableData) Fill(col string, dst []int64, lo, hi int64) error {
	c, err := t.Column(col)
	if err != nil {
		return err
	}
	if err := CheckFillRange(t.Meta.Name, col, t.Meta.Rows, len(dst), lo, hi); err != nil {
		return err
	}
	switch {
	case c != nil && hi > int64(c.Len()):
		return fmt.Errorf("storage: column %s.%s holds %d rows, fill asks for [%d,%d)", t.Meta.Name, col, c.Len(), lo, hi)
	case c != nil:
		c.Fill(dst[:hi-lo], int(lo))
	case t.isPK(col):
		for r := lo; r < hi; r++ {
			dst[r-lo] = r + 1
		}
	default:
		return ErrNotMaterialized
	}
	return nil
}

// Gather writes the value of row rows[j] of the named column into dst[j]
// for every j: a stored column is widened, the primary key is derived (row r
// holds r+1), and any other column is ErrNotMaterialized. Rows may come in
// any order and repeat. A row outside the table or a dst shorter than rows
// is an error and leaves dst untouched.
func (t *TableData) Gather(col string, dst []int64, rows []int32) error {
	c, err := t.Column(col)
	if err != nil {
		return err
	}
	if err := checkGatherRows(t.Meta.Name, col, t.Meta.Rows, len(dst), rows); err != nil {
		return err
	}
	switch {
	case c != nil:
		c.Gather(dst, rows)
	case t.isPK(col):
		for j, r := range rows {
			dst[j] = int64(r) + 1
		}
	default:
		return ErrNotMaterialized
	}
	return nil
}

// checkGatherRows is the argument check of a Gather(col, dst, rows) call on
// a table of rows rows: every row must lie in [0,rows) and dst must hold one
// value per row.
func checkGatherRows(table, col string, rows int64, dstLen int, at []int32) error {
	if dstLen < len(at) {
		return fmt.Errorf("gather %s.%s: %d rows into %d cells", table, col, len(at), dstLen)
	}
	for _, r := range at {
		if r < 0 || int64(r) >= rows {
			return fmt.Errorf("gather %s.%s: row %d outside [0,%d)", table, col, r, rows)
		}
	}
	return nil
}

// FillRows binds one buffer per distinct column of cols to the values of
// rows: position j of a buffer reads row rows[j]. gather writes the values
// of rows of a named column into dst (TableData.Gather, or a source's
// Gather that regenerates what storage does not hold) and is called once
// per column, so only the rows asked for are read.
func FillRows(gather func(col string, dst []int64, rows []int32) error, cols []string, rows []int32) (relalg.Buffers, error) {
	var b relalg.Buffers
	for _, name := range cols {
		if slices.Contains(b.Names, name) {
			continue
		}
		vals := make([]int64, len(rows))
		if err := gather(name, vals, rows); err != nil {
			return b, err
		}
		b.Names = append(b.Names, name)
		b.Vals = append(b.Vals, vals)
	}
	return b, nil
}

// CheckAligned verifies that every stored column holds Meta.Rows values.
func (t *TableData) CheckAligned() error {
	for i, c := range t.cols {
		if c != nil && c.Len() != t.Rows() {
			return fmt.Errorf("storage: table %s column %s has %d rows, want %d",
				t.Meta.Name, t.Meta.Columns[i].Name, c.Len(), t.Rows())
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
// table or Null). A column's range, recorded when it was stored, settles
// most columns without reading a value; only a column whose range leaves
// [1, refRows] — one holding Null, or a dangling key — is scanned, to find
// the first offending row.
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
			c, err := t.Column(fk.Name)
			if err != nil {
				return err
			}
			if c == nil || c.Len() == 0 || (c.min >= 1 && c.max <= refRows) {
				continue
			}
			var buf [1024]int64
			for lo := 0; lo < c.Len(); lo += len(buf) {
				vals := buf[:min(len(buf), c.Len()-lo)]
				c.Fill(vals, lo)
				for i, v := range vals {
					if v != Null && (v < 1 || v > refRows) {
						return fmt.Errorf("storage: %s.%s row %d: fk value %d outside referenced %s pk range [1,%d]",
							t.Meta.Name, fk.Name, lo+i, v, fk.Refs, refRows)
					}
				}
			}
		}
	}
	return nil
}
