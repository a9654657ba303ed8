package topology

import "math/bits"

// NodeSet is a set of node ids, one bit per node, sized by the node
// count. It is the tick kernel's worklist and memsys's stepping sets and
// directory sharer lists; all of them walk it in ascending node order.
type NodeSet []uint64

// NewNodeSet returns an empty set over nodes 0..nodes-1.
func NewNodeSet(nodes int) NodeSet { return make(NodeSet, (nodes+63)/64) }

// Add puts node i in the set.
func (s NodeSet) Add(i int) { s[i>>6] |= 1 << uint(i&63) }

// Remove takes node i out of the set.
func (s NodeSet) Remove(i int) { s[i>>6] &^= 1 << uint(i&63) }

// Empty reports whether the set has no member.
func (s NodeSet) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Next returns the smallest member not below i, or -1 when there is
// none. A live walk `for i := s.Next(0); i >= 0; i = s.Next(i + 1)` may
// add and remove members as it goes: a member added ahead of i is
// visited by the same walk, one added behind it is not.
func (s NodeSet) Next(i int) int {
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
