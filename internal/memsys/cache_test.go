package memsys

import (
	"math/rand"
	"testing"
)

// refLine and refCache are the stamp-based cache the packed one replaced:
// a valid bit and a last-touch stamp per line, the victim being the
// lowest invalid way or else the valid line with the least stamp. They
// are the reference model for TestCacheMatchesReference.
type refLine struct {
	valid bool
	tag   uint64
	state lineState
	lru   uint64 // last-touch stamp
}

type refCache struct {
	sets    uint64
	ways    int
	lines   []refLine // sets * ways
	stamp   uint64
	hits    uint64
	misses  uint64
	evicted uint64
}

func newRefCache(sets uint64, ways int) *refCache {
	return &refCache{sets: sets, ways: ways, lines: make([]refLine, sets*uint64(ways))}
}

func (c *refCache) set(block uint64) []refLine {
	s := block & (c.sets - 1)
	return c.lines[s*uint64(c.ways) : (s+1)*uint64(c.ways)]
}

func (c *refCache) lookup(block uint64) *refLine {
	tag := block / c.sets
	set := c.set(block)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.stamp++
			set[i].lru = c.stamp
			c.hits++
			return &set[i]
		}
	}
	c.misses++
	return nil
}

func (c *refCache) peek(block uint64) *refLine {
	tag := block / c.sets
	set := c.set(block)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

func (c *refCache) insert(block uint64, st lineState) (victimBlock uint64, victimState lineState, evicted bool) {
	tag := block / c.sets
	set := c.set(block)
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			evicted = false
			goto fill
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	evicted = true
	victimBlock = set[victim].tag*c.sets + (block & (c.sets - 1))
	victimState = set[victim].state
	c.evicted++
fill:
	c.stamp++
	set[victim] = refLine{valid: true, tag: tag, state: st, lru: c.stamp}
	return victimBlock, victimState, evicted
}

func (c *refCache) invalidate(block uint64) {
	if l := c.peek(block); l != nil {
		l.valid = false
	}
}

// cacheGeometries are the shapes both caches are driven through: one
// set, a few, direct-mapped, odd and the widest way count.
var cacheGeometries = func() (g [][2]int) {
	for _, sets := range []int{1, 2, 4} {
		for _, ways := range []int{1, 2, 3, 16} {
			g = append(g, [2]int{sets, ways})
		}
	}
	return g
}()

// checkCacheOps drives a cache and the reference through one op stream,
// two bytes per call: the first picks the call (and the state written by
// insert and setState), the second the block, from a universe of three
// times the capacity just below 2^41, the top of the address layout.
// insert is called whether or not the block is resident, which callers
// never do, so the equivalence checked is wider than the one relied on.
func checkCacheOps(t *testing.T, sets, ways int, ops []byte) {
	t.Helper()
	c, ref := newCache(uint64(sets), ways), newRefCache(uint64(sets), ways)
	universe := 3 * sets * ways
	base := uint64(1)<<41 - uint64(universe)
	sameLine := func(step int, call string, l *cacheLine, r *refLine) {
		t.Helper()
		if (l == nil) != (r == nil) {
			t.Fatalf("step %d %s: line present %v, reference %v", step, call, l != nil, r != nil)
		}
		if l != nil && (l.tag() != r.tag || l.state() != r.state) {
			t.Fatalf("step %d %s: line tag %d state %v, reference %d %v", step, call, l.tag(), l.state(), r.tag, r.state)
		}
	}
	for i := 0; i+1 < len(ops); i += 2 {
		step := i / 2
		st := stateS + lineState(ops[i]/5%3)
		block := base + uint64(int(ops[i+1])%universe)
		switch ops[i] % 5 {
		case 0:
			sameLine(step, "lookup", c.lookup(block), ref.lookup(block))
		case 1:
			sameLine(step, "peek", c.peek(block), ref.peek(block))
		case 2:
			vb, vs, ev := c.insert(block, st)
			rb, rs, rev := ref.insert(block, st)
			if vb != rb || vs != rs || ev != rev {
				t.Fatalf("step %d insert %#x: victim %#x/%v/%v, reference %#x/%v/%v", step, block, vb, vs, ev, rb, rs, rev)
			}
		case 3:
			c.invalidate(block)
			ref.invalidate(block)
		case 4:
			l, r := c.peek(block), ref.peek(block)
			sameLine(step, "setState", l, r)
			if l != nil {
				l.setState(st)
				r.state = st
			}
		}
		if c.hits != ref.hits || c.misses != ref.misses || c.evicted != ref.evicted {
			t.Fatalf("step %d: hits/misses/evicted %d/%d/%d, reference %d/%d/%d",
				step, c.hits, c.misses, c.evicted, ref.hits, ref.misses, ref.evicted)
		}
	}
}

// TestCacheMatchesReference checks the packed cache against the
// stamp-based one: every returned line, victim and counter agrees.
func TestCacheMatchesReference(t *testing.T) {
	for _, g := range cacheGeometries {
		for seed := int64(1); seed <= 4; seed++ {
			ops := make([]byte, 8000)
			rand.New(rand.NewSource(seed)).Read(ops)
			checkCacheOps(t, g[0], g[1], ops)
		}
	}
}

// FuzzCacheMatchesReference is TestCacheMatchesReference over arbitrary
// op streams; the first byte picks the geometry.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := cacheGeometries[int(data[0])%len(cacheGeometries)]
		checkCacheOps(t, g[0], g[1], data[1:])
	})
}
