package storage

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/dbhammer/mirage/internal/relalg"
)

// widthTable returns a table of rows rows with one stored column, c, beside
// its primary key.
func widthTable(rows int) *TableData {
	return NewTableData(&relalg.Table{Name: "w", Rows: int64(rows), Columns: []relalg.Column{
		{Name: "w_pk", Kind: relalg.PrimaryKey},
		{Name: "c", Kind: relalg.NonKey, DomainSize: math.MaxInt64},
	}})
}

// narrowest is the oracle of the width a column of vals must be stored at,
// written value by value.
func narrowest(vals []int64) int {
	w := 1
	for _, v := range vals {
		switch {
		case v < 0 || v > math.MaxUint32:
			w = 8
		case v > math.MaxUint16:
			w = max(w, 4)
		case v > math.MaxUint8:
			w = max(w, 2)
		}
	}
	return w
}

// checkRoundTrip stores vals with SetCol and, when none is negative, once
// more as a column MakeColumn allocated wider than needed, written in two
// halves and stored with SetColumn. It reads each back every way a reader
// can (checkStored).
func checkRoundTrip(t *testing.T, vals []int64) {
	t.Helper()
	td := widthTable(len(vals))
	td.SetCol("c", vals)
	checkStored(t, td, vals)
	if slices.ContainsFunc(vals, func(v int64) bool { return v < 0 }) {
		return
	}
	hi := int64(math.MaxUint32)
	for _, v := range vals {
		hi = max(hi, v)
	}
	c := MakeColumn(len(vals), hi)
	half := len(vals) / 2
	c.Set(half, vals[half:])
	c.Set(0, vals[:half])
	td = widthTable(len(vals))
	td.SetColumn("c", c)
	checkStored(t, td, vals)
}

// checkStored reads td's column c back every way a reader can: Col, Lookup,
// Fill over every window of a few sizes, and Gather over every row
// backwards with null pads between. Each must give vals back exactly, the
// column must be stored at the narrowest width that holds them, and its
// recorded range (what DB.Check reads) must be theirs.
func checkStored(t *testing.T, td *TableData, vals []int64) {
	t.Helper()
	c, err := td.Column("c")
	if err != nil || c == nil {
		t.Fatalf("Column(c) = %v, %v after storing", c, err)
	}
	if got, want := c.Width(), narrowest(vals); got != want {
		t.Errorf("%v: stored %d bytes wide, want %d", vals, got, want)
	}
	if len(vals) > 0 && (c.min != slices.Min(vals) || c.max != slices.Max(vals)) {
		t.Errorf("%v: recorded range [%d,%d]", vals, c.min, c.max)
	}
	if got := td.Col("c"); !slices.Equal(got, vals) || got == nil {
		t.Errorf("Col = %v, want %v", got, vals)
	}
	dst := make([]int64, len(vals))
	for _, w := range []int{1, 3, len(vals)} {
		for lo := 0; lo < len(vals); lo += max(w, 1) {
			hi := min(lo+w, len(vals))
			if err := td.Fill("c", dst, int64(lo), int64(hi)); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(dst[:hi-lo], vals[lo:hi]) {
				t.Errorf("Fill [%d,%d) = %v, want %v", lo, hi, dst[:hi-lo], vals[lo:hi])
			}
		}
	}
	var rows []int32
	var want []int64
	for r := len(vals) - 1; r >= 0; r-- {
		rows = append(rows, int32(r), -1)
		want = append(want, vals[r], Null)
	}
	got := make([]int64, len(rows))
	c.Gather(got, rows)
	if !slices.Equal(got, want) {
		t.Errorf("Gather = %v, want %v", got, want)
	}
}

// TestColumnWidthBoundaries stores columns at every width boundary — the
// largest value each width holds and the next — and at the values that
// force int64 (Null, negatives), an empty table, a value Set cannot narrow
// and the refused primary key.
func TestColumnWidthBoundaries(t *testing.T) {
	cases := [][]int64{
		{0}, {1}, {0, 1},
		{255}, {256}, {0, 255}, {255, 256, 1},
		{65535}, {65536}, {65535, 65536},
		{math.MaxUint32}, {math.MaxUint32 + 1}, {1, math.MaxUint32, 7},
		{Null}, {1, Null, 3}, {-1}, {5, -7, 2}, {math.MinInt64 + 1, math.MaxInt64},
	}
	for _, vals := range cases {
		t.Run(fmt.Sprint(vals), func(t *testing.T) { checkRoundTrip(t, vals) })
	}

	t.Run("empty table", func(t *testing.T) {
		td := widthTable(0)
		td.SetCol("c", []int64{})
		if c, _ := td.Column("c"); c == nil || c.Len() != 0 {
			t.Fatalf("Column(c) = %v, want a stored empty column", c)
		}
		if got := td.Col("c"); got == nil || len(got) != 0 {
			t.Errorf("Col = %v, want an empty non-nil slice", got)
		}
		if err := td.Fill("c", nil, 0, 0); err != nil {
			t.Errorf("Fill of no rows: %v", err)
		}
		if err := td.CheckAligned(); err != nil {
			t.Error(err)
		}
	})

	t.Run("dropped column", func(t *testing.T) {
		td := widthTable(2)
		td.SetCol("c", []int64{1, 300})
		td.SetCol("c", nil)
		if c, _ := td.Column("c"); c != nil || td.Col("c") != nil {
			t.Errorf("SetCol(nil) left %v stored", c)
		}
		if err := td.Fill("c", make([]int64, 2), 0, 2); err != ErrNotMaterialized {
			t.Errorf("Fill of a dropped column: %v, want ErrNotMaterialized", err)
		}
	})

	t.Run("short column", func(t *testing.T) {
		td := widthTable(3)
		td.SetCol("c", []int64{1, 2})
		if err := td.Fill("c", make([]int64, 3), 0, 3); err == nil {
			t.Error("Fill past a short column's end: want an error")
		}
		if err := td.CheckAligned(); err == nil {
			t.Error("CheckAligned: want a misalignment error")
		}
	})

	t.Run("Set past the width", func(t *testing.T) {
		c := MakeColumn(2, math.MaxUint8)
		defer func() {
			if recover() == nil {
				t.Errorf("Set of 256 into a one-byte column did not panic; width %d", c.Width())
			}
		}()
		c.Set(0, []int64{1, 256})
	})

	t.Run("primary key refused", func(t *testing.T) {
		td := widthTable(2)
		defer func() {
			if recover() == nil {
				t.Error("SetCol(w_pk) did not panic")
			}
			dst := make([]int64, 2)
			if err := td.Fill("w_pk", dst, 0, 2); err != nil || !slices.Equal(dst, []int64{1, 2}) {
				t.Errorf("derived key = %v, %v, want [1 2]", dst, err)
			}
		}()
		td.SetCol("w_pk", []int64{1, 2})
	})
}

// FuzzSetColFill round-trips arbitrary columns: raw's bytes are signed
// offsets from base (the byte 0x80 is Null), so the seeds put whole columns
// on each side of every width boundary.
func FuzzSetColFill(f *testing.F) {
	for _, base := range []int64{0, 1, 255, 256, 65535, 65536, math.MaxUint32, math.MaxUint32 + 1, -1, math.MaxInt64 - 127} {
		f.Add([]byte{128, 0, 1, 127, 255}, base)
		f.Add([]byte{0}, base)
		f.Add([]byte{1, 2, 3}, base)
	}
	f.Fuzz(func(t *testing.T, raw []byte, base int64) {
		vals := make([]int64, len(raw))
		for i, b := range raw {
			vals[i] = base + int64(int8(b))
			if b == 0x80 {
				vals[i] = Null
			}
		}
		checkRoundTrip(t, vals)
	})
}

// BenchmarkFillWidths measures the cost of widening one stored column,
// 64Ki-row windows at a time, at each width.
func BenchmarkFillWidths(b *testing.B) {
	const rows, window = 1 << 20, 1 << 16
	for _, top := range []int64{200, 60000, 1 << 30, 1 << 40} {
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = 1 + int64(i)*7919%top
		}
		td := widthTable(rows)
		td.SetCol("c", vals)
		c, _ := td.Column("c")
		dst := make([]int64, window)
		b.Run(fmt.Sprintf("bytes=%d", c.Width()), func(b *testing.B) {
			b.SetBytes(rows * 8)
			for range b.N {
				for lo := int64(0); lo < rows; lo += window {
					if err := td.Fill("c", dst, lo, lo+window); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
