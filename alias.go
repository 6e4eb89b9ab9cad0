package mirage

import (
	"context"

	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
	"github.com/dbhammer/mirage/internal/validate"
)

// The core vocabulary lives in internal packages so that the generator
// machinery can evolve freely; these aliases give library users stable
// exported names for the types the public API traffics in.

// Schema describes a database: tables with row-count constraints, one
// primary key per table, foreign keys forming the reference graph, and
// non-key columns with domain-size constraints.
type (
	Schema = relalg.Schema
	Table  = relalg.Table
	Column = relalg.Column
	AQT    = relalg.AQT
)

// Column kinds and display types.
const (
	NonKey     = relalg.NonKey
	PrimaryKey = relalg.PrimaryKey
	ForeignKey = relalg.ForeignKey

	TInt     = relalg.TInt
	TDecimal = relalg.TDecimal
	TDate    = relalg.TDate
	TString  = relalg.TString
)

// Codecs translate between cardinality-space integers and display values.
type (
	CodecSet     = storage.CodecSet
	IntCodec     = storage.IntCodec
	DecimalCodec = storage.DecimalCodec
	DateCodec    = storage.DateCodec
	DictCodec    = storage.DictCodec
	DB           = storage.DB
)

// NewDictCodec builds a dictionary codec over categorical display strings.
func NewDictCodec(dict []string) *DictCodec { return storage.NewDictCodec(dict) }

// Report is the per-query fidelity report produced by Validate.
type Report = validate.Report

// MeanError and MaxError aggregate report sets.
func MeanError(reports []Report) float64 { return validate.Mean(reports) }
func MaxError(reports []Report) float64  { return validate.MaxError(reports) }

// ExportCSVDir is ExportCSVDirCtx without a context.
func ExportCSVDir(dir string, db *DB, codecs CodecSet) error {
	return ExportCSVDirCtx(context.Background(), dir, db, codecs)
}

// ExportCSVDirCtx writes every table of a database as <dir>/<table>.csv; a
// cancelled ctx stops it at the next export shard, leaving no torn file.
func ExportCSVDirCtx(ctx context.Context, dir string, db *DB, codecs CodecSet) error {
	return storage.ExportDirCtx(ctx, dir, db, codecs)
}
