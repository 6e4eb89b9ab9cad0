package storage

import (
	"fmt"
	"math"
)

// Elem is an element type a column can be stored as.
type Elem interface {
	uint8 | uint16 | uint32 | int64
}

// Column is one stored column: its values at the narrowest of uint8, uint16,
// uint32 and int64 that holds every one of them, and their range. Exactly
// one of the slices is non-nil. A column is never written once stored;
// readers widen what they read (Fill, Gather), so none holds the column
// whole at int64.
type Column struct {
	u8       []uint8
	u16      []uint16
	u32      []uint32
	i64      []int64
	n        int
	min, max int64 // the values' range; min > max for an empty column
}

// NewColumn builds a column from vals at the narrowest width that holds
// every value: a column with Null, a negative value or one above MaxUint32
// is int64-wide. vals itself becomes the column when T is that width;
// otherwise its values are copied at that width.
func NewColumn[T Elem](vals []T) *Column {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, v := range vals {
		lo = min(lo, int64(v))
		hi = max(hi, int64(v))
	}
	c := &Column{n: len(vals), min: lo, max: hi}
	switch widthOf(lo, hi) {
	case 1:
		c.u8 = convert[uint8](vals)
	case 2:
		c.u16 = convert[uint16](vals)
	case 4:
		c.u32 = convert[uint32](vals)
	default:
		c.i64 = convert[int64](vals)
	}
	return c
}

// MakeColumn allocates a column of n values, 0 until written, at the
// narrowest width that holds every value in [0, hi]: a writer that knows its
// largest value fills the column at that width (Set, or Values' slice) and
// then stores it (TableData.SetColumn), never writing it again.
func MakeColumn(n int, hi int64) *Column {
	c := &Column{n: n, min: 1, max: 0}
	switch widthOf(0, hi) {
	case 1:
		c.u8 = make([]uint8, n)
	case 2:
		c.u16 = make([]uint16, n)
	case 4:
		c.u32 = make([]uint32, n)
	default:
		c.i64 = make([]int64, n)
	}
	return c
}

// Set writes vals into rows [lo, lo+len(vals)) of a column MakeColumn
// allocated; every value must fit its width. Writers of disjoint row ranges
// may call it concurrently.
func (c *Column) Set(lo int, vals []int64) {
	switch {
	case c.u8 != nil:
		narrow(c.u8[lo:lo+len(vals)], vals)
	case c.u16 != nil:
		narrow(c.u16[lo:lo+len(vals)], vals)
	case c.u32 != nil:
		narrow(c.u32[lo:lo+len(vals)], vals)
	default:
		copy(c.i64[lo:lo+len(vals)], vals)
	}
}

// settle returns the written column c as storage keeps it: its range
// recorded, at the narrowest width that holds it (NewColumn, which keeps c's
// slice when that is already its width).
func (c *Column) settle() *Column {
	switch {
	case c.u8 != nil:
		return NewColumn(c.u8)
	case c.u16 != nil:
		return NewColumn(c.u16)
	case c.u32 != nil:
		return NewColumn(c.u32)
	}
	return NewColumn(c.i64)
}

// widthOf returns the byte width of the narrowest element type holding
// every value in [lo, hi]; an empty range (lo > hi) fits one byte.
func widthOf(lo, hi int64) int {
	switch {
	case lo > hi:
		return 1
	case lo < 0 || hi > math.MaxUint32:
		return 8
	case hi > math.MaxUint16:
		return 4
	case hi > math.MaxUint8:
		return 2
	}
	return 1
}

// convert returns src as a []D: src itself when it already is one, a
// converted copy otherwise. Every value must fit D.
func convert[D, S Elem](src []S) []D {
	if d, ok := any(src).([]D); ok {
		return d
	}
	d := make([]D, len(src))
	for i, v := range src {
		d[i] = D(v)
	}
	return d
}

// Len returns the number of values in the column.
func (c *Column) Len() int { return c.n }

// Width returns the bytes each value is stored in: 1, 2, 4 or 8.
func (c *Column) Width() int {
	switch {
	case c.u8 != nil:
		return 1
	case c.u16 != nil:
		return 2
	case c.u32 != nil:
		return 4
	}
	return 8
}

// Values returns c's values as a []T when c is stored at T's width, and nil
// otherwise (and for a nil c): a hot loop dispatches on Width once and then
// reads the column at its width, generic over the element type. A writer
// of a MakeColumn column fills it through this slice the same way.
func Values[T Elem](c *Column) []T {
	var v any
	switch {
	case c == nil:
		return nil
	case c.u8 != nil:
		v = c.u8
	case c.u16 != nil:
		v = c.u16
	case c.u32 != nil:
		v = c.u32
	default:
		v = c.i64
	}
	s, _ := v.([]T)
	return s
}

// Fill widens rows [lo, lo+len(dst)) into dst.
func (c *Column) Fill(dst []int64, lo int) {
	switch {
	case c.u8 != nil:
		widen(dst, c.u8[lo:lo+len(dst)])
	case c.u16 != nil:
		widen(dst, c.u16[lo:lo+len(dst)])
	case c.u32 != nil:
		widen(dst, c.u32[lo:lo+len(dst)])
	default:
		copy(dst, c.i64[lo:lo+len(dst)])
	}
}

// Gather widens the values of rows into dst[0:len(rows)]. A negative row is
// a null-padded slot (an outer join's) and reads as Null.
func (c *Column) Gather(dst []int64, rows []int32) {
	switch {
	case c.u8 != nil:
		gather(dst, c.u8, rows)
	case c.u16 != nil:
		gather(dst, c.u16, rows)
	case c.u32 != nil:
		gather(dst, c.u32, rows)
	default:
		gather(dst, c.i64, rows)
	}
}

func narrow[T Elem](dst []T, src []int64) {
	for i, v := range src {
		if int64(T(v)) != v {
			panic(fmt.Sprintf("storage: value %d does not fit a %T column", v, dst[0]))
		}
		dst[i] = T(v)
	}
}

func widen[T Elem](dst []int64, src []T) {
	for i, v := range src {
		dst[i] = int64(v)
	}
}

func gather[T Elem](dst []int64, src []T, rows []int32) {
	dst = dst[:len(rows)]
	for i, r := range rows {
		if r < 0 {
			dst[i] = Null
			continue
		}
		dst[i] = int64(src[r])
	}
}
