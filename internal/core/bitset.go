package core

import "math/bits"

// bitset is a set of small non-negative integers, one bit per member. The Sharon graph keeps one per vertex as its adjacency row,
// and the plan search keeps its candidate sets in them, so conflict tests
// and set intersections are word operations.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)>>6) }

func (b bitset) has(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<uint(i&63)) != 0
}

// set adds i; b must already cover i.
func (b bitset) set(i int) { b[i>>6] |= 1 << uint(i&63) }

func (b bitset) clear(i int) { b[i>>6] &^= 1 << uint(i&63) }

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// next returns the smallest member >= i, or -1.
func (b bitset) next(i int) int {
	w := i >> 6
	if w >= len(b) {
		return -1
	}
	word := b[w] >> uint(i&63)
	if word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for w++; w < len(b); w++ {
		if b[w] != 0 {
			return w<<6 + bits.TrailingZeros64(b[w])
		}
	}
	return -1
}

// members appends b's members to dst, ascending.
func (b bitset) members(dst []int) []int {
	for k, w := range b {
		for w != 0 {
			dst = append(dst, k<<6+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// grow returns b widened to cover i, keeping its members.
func (b bitset) grow(i int) bitset {
	for len(b) <= i>>6 {
		b = append(b, 0)
	}
	return b
}
