package workload

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/dbhammer/mirage/internal/fault"
	"github.com/dbhammer/mirage/internal/faultinject"
	"github.com/dbhammer/mirage/internal/relalg"
	"github.com/dbhammer/mirage/internal/storage"
)

// referenceOriginal is the sequential formulation GenerateOriginal replaced:
// one rand.Rand per column, Int63n per draw, rand.Shuffle over the int64
// column. It is the oracle the column-parallel generator must match byte for
// byte.
func referenceOriginal(schema *relalg.Schema, seed int64) *storage.DB {
	db := storage.NewDB(schema)
	for _, tbl := range schema.Tables {
		data := db.Table(tbl.Name)
		n := int(tbl.Rows)
		for i := range tbl.Columns {
			col := &tbl.Columns[i]
			switch col.Kind {
			case relalg.NonKey:
				rng := rand.New(rand.NewSource(seed ^ hash2(tbl.Name, col.Name)))
				vals := make([]int64, n)
				d := col.DomainSize
				for v := int64(0); v < d && v < int64(n); v++ {
					vals[v] = v + 1
				}
				for r := int(d); r < n; r++ {
					vals[r] = rng.Int63n(d) + 1
				}
				rng.Shuffle(n, func(a, b int) { vals[a], vals[b] = vals[b], vals[a] })
				data.SetCol(col.Name, vals)
			case relalg.ForeignKey:
				refRows := schema.MustTable(col.Refs).Rows
				rng := rand.New(rand.NewSource(seed ^ hash2(tbl.Name, col.Name) ^ 0x5bd1e995))
				vals := make([]int64, n)
				for r := range vals {
					vals[r] = rng.Int63n(refRows) + 1
				}
				data.SetCol(col.Name, vals)
			}
		}
	}
	return db
}

// edgeSchema has a table per row count in rows, each with a non-key column
// per domain size in domains (uncapped: a domain may exceed the row count)
// and a foreign key to every earlier table that has rows.
func edgeSchema(rows, domains []int64) *relalg.Schema {
	s := &relalg.Schema{}
	for _, n := range rows {
		tbl := &relalg.Table{Name: fmt.Sprintf("t%d", n), Rows: n, Columns: []relalg.Column{pk("id")}}
		for _, d := range domains {
			tbl.Columns = append(tbl.Columns, relalg.Column{
				Name: fmt.Sprintf("c%d", d), Type: relalg.TInt, Kind: relalg.NonKey, DomainSize: d,
			})
		}
		for _, ref := range s.Tables {
			if ref.Rows > 0 {
				tbl.Columns = append(tbl.Columns, fk("fk_"+ref.Name, ref.Name))
			}
		}
		s.Tables = append(s.Tables, tbl)
	}
	return s
}

// diffDB reports the first cell where got and want differ.
func diffDB(got, want *storage.DB) error {
	for _, tbl := range want.Schema.Tables {
		for _, c := range tbl.Columns {
			g, w := got.Table(tbl.Name).Col(c.Name), want.Table(tbl.Name).Col(c.Name)
			if len(g) != len(w) {
				return fmt.Errorf("%s.%s: %d rows, want %d", tbl.Name, c.Name, len(g), len(w))
			}
			for r := range w {
				if g[r] != w[r] {
					return fmt.Errorf("%s.%s row %d: %d, want %d", tbl.Name, c.Name, r, g[r], w[r])
				}
			}
		}
	}
	return nil
}

// TestGenerateOriginalMatchesReference holds the column-parallel generator
// to the sequential rand.Rand formulation, cell for cell, at several worker
// counts: on the built-in workloads, and on a grid of row counts and domains
// that crosses every element width (1, 2, 4 and 8 bytes), powers of two
// (Int63n masks instead of rejecting), domains equal to and above the row
// count, and partial shuffle batches.
func TestGenerateOriginalMatchesReference(t *testing.T) {
	type tc struct {
		name   string
		schema *relalg.Schema
		seed   int64
	}
	cases := []tc{
		{"edge", edgeSchema(
			[]int64{0, 1, 2, 3, 255, 256, 257, 1000, 70_001},
			[]int64{1, 2, 3, 7, 64, 100, 255, 256, 257, 1000, 65_535, 65_536, 70_001, 1 << 33, 1<<33 + 1},
		), 5},
		{"edge-seed", edgeSchema([]int64{513, 4096}, []int64{2, 11, 300, 4096, 100_000}), -3},
	}
	for _, spec := range Registry() {
		cases = append(cases, tc{spec.Name, spec.NewSchema(0.5), 11})
	}
	for _, c := range cases {
		want := referenceOriginal(c.schema, c.seed)
		for _, workers := range []int{1, 2, 5} {
			got, err := generateOriginal(c.schema, c.seed, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			if err := diffDB(got, want); err != nil {
				t.Errorf("%s workers=%d: %v", c.name, workers, err)
			}
		}
	}
}

// TestUniformMatchesInt63n checks uniform draw for draw against Int63n,
// including divisors whose rejection step fires on most draws.
func TestUniformMatchesInt63n(t *testing.T) {
	for _, n := range []int64{1, 2, 3, 6, 1 << 20, 1<<20 + 1, 1<<31 - 1, 1<<62 + 1, 3 << 61, math.MaxInt64} {
		ref := rand.New(rand.NewSource(int64(n)))
		u := newUniform(rand.NewSource(int64(n)), n)
		for i := range 2000 {
			if got, want := u.draw(), ref.Int63n(n); got != want {
				t.Fatalf("n=%d draw %d: %d, want %d", n, i, got, want)
			}
		}
	}
}

// TestInt31nMatchesShuffle checks int31n against the draw rand.Rand.Shuffle
// makes for its first swap, at sizes whose rejection step fires often
// (3<<29 rejects a quarter of the draws).
func TestInt31nMatchesShuffle(t *testing.T) {
	stop := errors.New("stop")
	firstSwap := func(src rand.Source, n int) (j int) {
		defer func() {
			if r := recover(); r != stop {
				panic(r)
			}
		}()
		rand.New(src).Shuffle(n, func(_, b int) {
			j = b
			panic(stop)
		})
		return -1
	}
	for _, n := range []uint32{2, 3, 1000, 3 << 29, 1<<31 - 1} {
		for seed := range int64(500) {
			if got, want := int31n(rand.NewSource(seed), n), firstSwap(rand.NewSource(seed), int(n)); int(got) != want {
				t.Fatalf("n=%d seed=%d: %d, want %d", n, seed, got, want)
			}
		}
	}
}

// originalGolden is the FNV-64a of every column of the seed-11 original at
// SF 1 (schema order, little-endian int64 cells, the derived primary key
// included), recorded from the
// sequential rand.Rand generator before the original became
// column-parallel. Re-record only for a change that means to move the
// original database: every annotation is read off it.
var originalGolden = map[string]uint64{
	"ssb":   0xd314403779fb98e0,
	"tpch":  0xa1d127d98db6d9dc,
	"tpcds": 0x7d51848dbeae3ab7,
}

func originalHash(db *storage.DB) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, tbl := range db.Schema.Tables {
		vals := make([]int64, tbl.Rows)
		for _, c := range tbl.Columns {
			if err := db.Table(tbl.Name).Fill(c.Name, vals, 0, tbl.Rows); err != nil {
				panic(err)
			}
			for _, v := range vals {
				binary.LittleEndian.PutUint64(buf[:], uint64(v))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// TestCrossCommitOriginalGolden pins the original database across commits.
// The reference oracle above lives beside the code it checks; these
// constants do not.
func TestCrossCommitOriginalGolden(t *testing.T) {
	for _, spec := range Registry() {
		db, err := GenerateOriginal(spec.NewSchema(1), 11)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := originalHash(db), originalGolden[spec.Name]; got != want {
			t.Errorf("%s: original checksum %#016x, golden %#016x", spec.Name, got, want)
		}
	}
}

// TestGenerateOriginalRejectsEmptyReferencedTable: a foreign key into a
// table with no rows has nothing to draw from. It is refused with an error
// naming the column, not a panic in Int63n.
func TestGenerateOriginalRejectsEmptyReferencedTable(t *testing.T) {
	s := &relalg.Schema{Tables: []*relalg.Table{
		{Name: "dim", Rows: 0, Columns: []relalg.Column{pk("d_id")}},
		{Name: "fact", Rows: 3, Columns: []relalg.Column{pk("f_id"), fk("f_dim", "dim")}},
	}}
	_, err := GenerateOriginal(s, 1)
	if err == nil || !strings.Contains(err.Error(), "fact.f_dim") {
		t.Fatalf("err = %v, want a refusal naming fact.f_dim", err)
	}
	// An empty table referencing an empty table draws nothing and is fine.
	s.Tables[1].Rows = 0
	if _, err := GenerateOriginal(s, 1); err != nil {
		t.Fatalf("empty fact: %v", err)
	}
}

// TestGenerateOriginalFaultIsTyped: a panic in a column worker comes back as
// a typed StageError of the original's stage, with every worker joined.
func TestGenerateOriginalFaultIsTyped(t *testing.T) {
	in := faultinject.New(faultinject.Rule{Stage: originalStage, Item: 3, Action: faultinject.Panic})
	defer faultinject.Activate(in)()
	_, err := generateOriginal(TPCH().NewSchema(0.1), 11, 2)
	var se *fault.StageError
	if !errors.As(err, &se) || se.Stage != originalStage || se.Item != 3 {
		t.Fatalf("err = %v, want a StageError at %s item 3", err, originalStage)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want it to wrap faultinject.ErrInjected", err)
	}
}

// BenchmarkGenerateOriginal times set-up's original database at the scale
// factors of the tpch-scan-stream and ssb-inmem benchmark workloads.
func BenchmarkGenerateOriginal(b *testing.B) {
	for _, c := range []struct {
		spec *Spec
		sf   float64
	}{{TPCH(), 30}, {SSB(), 40}} {
		schema := c.spec.NewSchema(c.sf)
		b.Run(fmt.Sprintf("%s-sf%g", c.spec.Name, c.sf), func(b *testing.B) {
			for range b.N {
				if _, err := GenerateOriginal(schema, 11); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
