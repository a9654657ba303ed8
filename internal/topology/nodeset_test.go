package topology

import (
	"slices"
	"testing"
)

// members walks s the way both sparse steppers do.
func members(s NodeSet) []int {
	var ids []int
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		ids = append(ids, i)
	}
	return ids
}

// TestNodeSet covers the set at word boundaries and the live-walk
// contract the tick kernel and memsys rely on: a member added ahead of
// the walk is visited, one added behind it is not, and removing the
// current member does not disturb the walk.
func TestNodeSet(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		s := NewNodeSet(n)
		if !s.Empty() || s.Next(0) != -1 {
			t.Fatalf("n=%d: new set not empty: %v", n, members(s))
		}
		// First, last and the ids either side of each word boundary.
		var want []int
		for _, i := range []int{0, 62, 63, 64, 65, 127, 128, n - 1} {
			if i < n && !slices.Contains(want, i) {
				want = append(want, i)
			}
		}
		slices.Sort(want)
		for _, i := range want {
			s.Add(i)
			s.Add(i) // idempotent
		}
		if got := members(s); !slices.Equal(got, want) {
			t.Errorf("n=%d: walk %v, want %v", n, got, want)
		}
		if s.Empty() {
			t.Errorf("n=%d: Empty with %d members", n, len(want))
		}
		if got := s.Next(n); got != -1 {
			t.Errorf("n=%d: Next(n) = %d, want -1", n, got)
		}
		for _, i := range want {
			if got := s.Next(i); got != i {
				t.Errorf("n=%d: Next(%d) = %d, want the member itself", n, i, got)
			}
		}
		for k, i := range want {
			s.Remove(i)
			s.Remove(i) // idempotent
			if got := members(s); !slices.Equal(got, want[k+1:]) {
				t.Errorf("n=%d: after removing %d walk %v, want %v", n, i, got, want[k+1:])
			}
			if got, last := s.Empty(), k == len(want)-1; got != last {
				t.Errorf("n=%d: Empty() = %v with members %v", n, got, members(s))
			}
		}
	}

	// A live walk over 130 nodes: at 65 it adds 129 (ahead: visited) and
	// 3 (behind: not visited) and removes itself.
	s := NewNodeSet(130)
	for _, i := range []int{1, 65, 100} {
		s.Add(i)
	}
	var visited []int
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		visited = append(visited, i)
		if i == 65 {
			s.Add(129)
			s.Add(3)
			s.Remove(65)
		}
	}
	if want := []int{1, 65, 100, 129}; !slices.Equal(visited, want) {
		t.Errorf("live walk visited %v, want %v", visited, want)
	}
	if got, want := members(s), []int{1, 3, 100, 129}; !slices.Equal(got, want) {
		t.Errorf("after the walk the set is %v, want %v", got, want)
	}
}
