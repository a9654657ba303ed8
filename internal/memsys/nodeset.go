package memsys

import "math/bits"

// nodeSet is a set of node ids, one bit per node, sized by the node
// count. It serves the directory's sharer lists and the System's
// stepping sets; both walk it in ascending node order.
type nodeSet []uint64

func newNodeSet(nodes int) nodeSet { return make(nodeSet, (nodes+63)/64) }

func (s nodeSet) add(i int)    { s[i>>6] |= 1 << uint(i&63) }
func (s nodeSet) remove(i int) { s[i>>6] &^= 1 << uint(i&63) }

// empty reports whether the set has no member.
func (s nodeSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// next returns the smallest member not below i, or -1 when there is
// none. A walk `for i := s.next(0); i >= 0; i = s.next(i + 1)` may add
// and remove members as it goes.
func (s nodeSet) next(i int) int {
	k := i >> 6
	if k >= len(s) {
		return -1
	}
	if w := s[k] >> uint(i&63); w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for k++; k < len(s); k++ {
		if s[k] != 0 {
			return k<<6 + bits.TrailingZeros64(s[k])
		}
	}
	return -1
}
