package engine

import (
	"math/bits"
	"slices"

	"github.com/dbhammer/mirage/internal/storage"
)

// bitset is a fixed-size dense bit vector. The executor uses it wherever the
// row-at-a-time engine used bool-valued hash maps over dense domains —
// matched PK values and left tuples in joins, distinct projection values,
// row sets (RowSet) — turning per-row map operations into single word ops.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// fullBitset returns a bitset over n positions with every one of them set.
func fullBitset(n int) bitset {
	b := newBitset(n)
	for i := range b {
		b[i] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		b[len(b)-1] = 1<<uint(r) - 1
	}
	return b
}

func (b bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

func (b bitset) test(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// count returns the number of set bits.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// trailingZeros exposes the word-level bit scan for callers iterating set
// bits with auxiliary per-bit state (the join's matched-bucket walk).
func trailingZeros(w uint64) int { return bits.TrailingZeros64(w) }

// appendRange appends the set bit positions in [lo, hi) to dst in ascending
// order. A word with every bit set is written as a run of 64 positions
// instead of being scanned bit by bit.
func (b bitset) appendRange(dst []int32, lo, hi int) []int32 {
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		base := wi << 6
		w := b[wi]
		if base < lo {
			w &^= 1<<uint(lo-base) - 1
		}
		if hi-base < 64 {
			w &= 1<<uint(hi-base) - 1
		}
		if w == ^uint64(0) {
			n := len(dst)
			dst = slices.Grow(dst, 64)[:n+64]
			for j := range dst[n:] {
				dst[n+j] = int32(base + j)
			}
			continue
		}
		for w != 0 {
			dst = append(dst, int32(base+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// bit is 1 where bit i is set, else 0: a bit test and a flag set, not a
// branch, so a kernel advancing its output index by it keeps a row at the
// same cost whatever the bit.
func (b bitset) bit(i uint64) int {
	if b[i>>6]&(1<<(i&63)) != 0 {
		return 1
	}
	return 0
}

// keepFK writes to dst the rows r of src, in order, whose foreign key fk[r]
// names a row of set, a set over the nPK rows of the PK table (key k names
// row k-1), and returns them; dst needs len(src) room and may be src itself.
// Every row is written and the output index advances by the bit tested, so
// the loop takes no branch on the bit and costs the same at any selectivity.
// The one branch is the key's domain test, 1 <= k <= nPK: it fails only on
// NULL, 0 and out-of-domain keys, which generated data does not hold, so the
// predictor always gets it right there. Clamping such keys onto a never-set
// padding bit instead compiles to the same compare and branch, and costs
// more (DESIGN.md §7, "Branch-free kernels").
func keepFK[T storage.Elem](dst, src []int32, fk []T, set bitset, nPK int) []int32 {
	n := uint64(nPK)
	dst = dst[:len(src)]
	k := 0
	for _, r := range src {
		key := uint64(int64(fk[r]) - 1)
		dst[k] = r
		if key < n {
			k += set.bit(key)
		}
	}
	return dst[:k]
}

// keepFKCol is keepFK over fk at its storage width.
func keepFKCol(dst, src []int32, fk *storage.Column, set bitset, nPK int) []int32 {
	switch fk.Width() {
	case 1:
		return keepFK(dst, src, storage.Values[uint8](fk), set, nPK)
	case 2:
		return keepFK(dst, src, storage.Values[uint16](fk), set, nPK)
	case 4:
		return keepFK(dst, src, storage.Values[uint32](fk), set, nPK)
	}
	return keepFK(dst, src, storage.Values[int64](fk), set, nPK)
}
