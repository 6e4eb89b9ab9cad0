package workload

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"github.com/dbhammer/mirage/internal/parallel"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
)

// originalStage labels the original database's column pool in typed errors
// and fault-injection points.
const originalStage = "workload/original"

// GenerateOriginal materializes the in-production database instance for a
// scale factor: uniform value distributions over each column's domain and
// uniformly random (valid) foreign keys, deterministic in the seed.
//
// The QAG problem consumes only the cardinality constraints extracted from
// this instance, so any non-degenerate original produces the same kind of
// constraint system the real application would.
//
// Every column is a pure function of (seed, table, column): it draws from
// its own math/rand source, seeded from the seed and the column's name. The
// columns are therefore drawn on GOMAXPROCS workers, each stored by the
// worker that drew it (storage takes distinct columns concurrently), and the
// instance is the same byte for byte at any worker count.
func GenerateOriginal(schema *relalg.Schema, seed int64) (*storage.DB, error) {
	return generateOriginal(schema, seed, 0)
}

// originalColumn is one drawn column of the original database.
type originalColumn struct {
	data *storage.TableData
	col  *relalg.Column
	rows int
	// domain is the non-key column's DomainSize, or the referenced table's
	// row count for a foreign key.
	domain int64
}

// generateOriginal is GenerateOriginal on a given number of workers
// (<= 0 selects GOMAXPROCS).
func generateOriginal(schema *relalg.Schema, seed int64, workers int) (*storage.DB, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	// Columns do not depend on each other, but a cyclic reference graph is
	// refused here, as key generation would refuse it.
	if _, err := schema.TopologicalOrder(); err != nil {
		return nil, err
	}
	db := storage.NewDB(schema)
	var cols []originalColumn
	for _, tbl := range schema.Tables {
		data := db.Table(tbl.Name)
		n := int(tbl.Rows)
		for i := range tbl.Columns {
			col := &tbl.Columns[i]
			switch col.Kind {
			case relalg.NonKey:
				cols = append(cols, originalColumn{data, col, n, col.DomainSize})
			case relalg.ForeignKey:
				ref := schema.MustTable(col.Refs).Rows
				if ref == 0 && n > 0 {
					return nil, fmt.Errorf("workload: fk %s.%s references table %q, which has no rows",
						tbl.Name, col.Name, col.Refs)
				}
				cols = append(cols, originalColumn{data, col, n, ref})
			}
		}
	}
	// Longest columns first, so that no long column starts last. Each column
	// is drawn from its own source, so the order moves no byte.
	slices.SortStableFunc(cols, func(a, b originalColumn) int { return cmp.Compare(b.rows, a.rows) })
	err := parallel.ForEachCtx(context.Background(), originalStage, parallel.Workers(workers), len(cols),
		func(i int) error {
			cols[i].draw(seed)
			return nil
		})
	if err != nil {
		return nil, err
	}
	if err := db.Check(); err != nil {
		return nil, err
	}
	return db, nil
}

// draw generates the column and stores it. A foreign key is rows uniform
// draws from [1, refRows]. A non-key column holds 1..min(d, rows) once each,
// so every domain value appears, then uniform draws from [1, d] for the
// remaining rows, then a Fisher–Yates shuffle. The draws are those of
// rand.Rand's Int63n and Shuffle on the column's source, in the same order.
// Either is drawn straight into a column at the width that holds its domain.
func (c originalColumn) draw(seed int64) {
	col := storage.MakeColumn(c.rows, c.domain)
	switch col.Width() {
	case 1:
		drawColumn(c, seed, storage.Values[uint8](col))
	case 2:
		drawColumn(c, seed, storage.Values[uint16](col))
	case 4:
		drawColumn(c, seed, storage.Values[uint32](col))
	default:
		drawColumn(c, seed, storage.Values[int64](col))
	}
	c.data.SetColumn(c.col.Name, col)
}

// drawColumn is draw into vals, c.rows elements of type E.
func drawColumn[E storage.Elem](c originalColumn, seed int64, vals []E) {
	if c.rows == 0 {
		// Nothing to draw, and a foreign key may reference an empty table,
		// which leaves no divisor.
		return
	}
	h := hash2(c.data.Meta.Name, c.col.Name)
	if c.col.Kind == relalg.ForeignKey {
		u := newUniform(rand.NewSource(seed^h^0x5bd1e995), c.domain)
		for r := range vals {
			vals[r] = E(u.draw() + 1)
		}
		return
	}
	domainColumn(rand.NewSource(seed^h), vals, c.domain)
}

// domainColumn draws a non-key column over the domain [1, d] into a, in
// elements of type E, the narrowest that holds d. The shuffle's random swaps
// then touch n·sizeof(E) bytes instead of 8n: a one-byte column of a
// 1.8M-row table fits in a 2 MiB L2 cache.
func domainColumn[E storage.Elem](src rand.Source, a []E, d int64) {
	n := len(a)
	for v := int64(0); v < d && v < int64(n); v++ {
		a[v] = E(v + 1)
	}
	if int64(n) > d {
		u := newUniform(src, d)
		for r := int(d); r < n; r++ {
			a[r] = E(u.draw() + 1)
		}
	}
	shuffle(src, a)
}

// uniform draws what rand.Rand.Int63n(n) draws from the same source. Int63n
// recomputes its rejection bound, a 64-bit division, on every call; uniform
// computes it once, which leaves one division per draw. Int63n masks when n
// is a power of two; there the bound is MaxInt64, nothing is rejected, and
// v % n is that mask.
type uniform struct {
	src rand.Source
	n   int64
	max int64 // the largest accepted raw draw
}

func newUniform(src rand.Source, n int64) uniform {
	return uniform{src: src, n: n, max: int64((1 << 63) - 1 - (1<<63)%uint64(n))}
}

func (u uniform) draw() int64 {
	v := u.src.Int63()
	for v > u.max {
		v = u.src.Int63()
	}
	return v % u.n
}

// shuffleBatch is how many swap targets shuffle draws before it swaps.
const shuffleBatch = 256

// shuffle permutes a exactly as rand.New(src).Shuffle(len(a), swap) does.
// It draws the swap targets of a batch of positions first and then swaps
// them, so the random reads of one batch do not wait on each other's draws
// and their cache misses overlap.
func shuffle[E storage.Elem](src rand.Source, a []E) {
	if len(a) > math.MaxInt32 {
		rand.New(src).Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		return
	}
	var js [shuffleBatch]uint32
	for i := len(a) - 1; i > 0; {
		k := min(i, shuffleBatch)
		for b := range k {
			js[b] = int31n(src, uint32(i-b+1))
		}
		for b, j := range js[:k] {
			a[i-b], a[j] = a[j], a[i-b]
		}
		i -= k
	}
}

// int31n is rand.Rand's unexported int31n, the draw Shuffle makes for each
// position: Lemire's multiply-and-shift with a rejection step that divides
// only when the product's low word falls under n.
func int31n(src rand.Source, n uint32) uint32 {
	prod := uint64(uint32(src.Int63()>>31)) * uint64(n)
	if low := uint32(prod); low < n {
		thresh := -n % n
		for low < thresh {
			prod = uint64(uint32(src.Int63()>>31)) * uint64(n)
			low = uint32(prod)
		}
	}
	return uint32(prod >> 32)
}

func hash2(a, b string) int64 {
	var h int64 = 1469598103934665603
	for _, s := range []string{a, b} {
		for i := 0; i < len(s); i++ {
			h ^= int64(s[i])
			h *= 1099511628211
		}
	}
	return h
}
