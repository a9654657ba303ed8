package memsys

import "math/bits"

// cacheLine is one way of a set, packed as tag<<2 | state. State I marks
// an invalid way: insert only writes S, E or M, and invalidate is the
// only writer of I. Every block number is below 2^41 (see sharedBase), so
// the shifted tag cannot overflow.
type cacheLine uint64

func (l cacheLine) tag() uint64 { return uint64(l) >> 2 }

func (l cacheLine) state() lineState { return lineState(l & 3) }

// setState changes a resident line's state; st must not be I (use
// invalidate).
func (l *cacheLine) setState(st lineState) { *l = *l&^3 | cacheLine(st) }

// lineState is the MESI state of an L1 line (the L2 data array marks
// clean data S and dirty data M).
type lineState uint8

const (
	stateI lineState = iota
	stateS
	stateE
	stateM
)

// String implements fmt.Stringer.
func (s lineState) String() string {
	switch s {
	case stateI:
		return "I"
	case stateS:
		return "S"
	case stateE:
		return "E"
	case stateM:
		return "M"
	default:
		return "?"
	}
}

// maxWays is the most ways a set's recency word can rank, one nibble each.
const maxWays = 16

// identityOrder ranks way r at rank r: the recency word of an untouched
// set. Its nibbles are distinct, and touches only permute the low ones
// among themselves, so each way appears in the word exactly once.
const identityOrder = 0xFEDCBA9876543210

// cache is a set-associative array with LRU replacement. Addresses are
// block numbers; the offset is already stripped.
type cache struct {
	sets    uint64
	ways    int
	lines   []cacheLine // sets * ways
	order   []uint64    // per set: nibble r is the way at recency rank r, 0 the most recent
	hits    uint64
	misses  uint64
	evicted uint64
}

// newCache builds a cache of the given geometry. sets must be a power of
// two and ways at most maxWays.
func newCache(sets uint64, ways int) *cache {
	if sets == 0 || sets&(sets-1) != 0 {
		panic("memsys: cache sets must be a power of two")
	}
	if ways < 1 || ways > maxWays {
		panic("memsys: cache ways must be between 1 and 16")
	}
	order := make([]uint64, sets)
	for i := range order {
		order[i] = identityOrder
	}
	return &cache{sets: sets, ways: ways, lines: make([]cacheLine, sets*uint64(ways)), order: order}
}

func (c *cache) set(s uint64) []cacheLine {
	return c.lines[s*uint64(c.ways) : (s+1)*uint64(c.ways)]
}

// find returns the way of set s holding tag, or -1.
func (c *cache) find(s, tag uint64) int {
	for i, l := range c.set(s) {
		if l.tag() == tag && l.state() != stateI {
			return i
		}
	}
	return -1
}

// touch makes way the most recent of set s: it moves to rank 0, and each
// way that was more recent than it moves one rank older.
func (c *cache) touch(s uint64, way int) {
	const ones, highs = 0x1111111111111111, 0x8888888888888888
	o := c.order[s]
	// x has a zero nibble where o holds way. The borrow trick flags the
	// lowest zero nibble exactly (only flags above it can be false), so
	// r is the bit offset of way's rank.
	x := o ^ uint64(way)*ones
	r := uint(bits.TrailingZeros64((x-ones)&^x&highs)) &^ 3
	newer := uint64(1)<<r - 1
	c.order[s] = o&^(newer<<4|0xF) | (o&newer)<<4 | uint64(way)
}

// lookup returns the line holding block, or nil. It touches LRU on hit.
func (c *cache) lookup(block uint64) *cacheLine {
	s := block & (c.sets - 1)
	if i := c.find(s, block/c.sets); i >= 0 {
		c.touch(s, i)
		c.hits++
		return &c.set(s)[i]
	}
	c.misses++
	return nil
}

// peek is lookup without touching LRU or hit/miss counters.
func (c *cache) peek(block uint64) *cacheLine {
	s := block & (c.sets - 1)
	if i := c.find(s, block/c.sets); i >= 0 {
		return &c.set(s)[i]
	}
	return nil
}

// insert fills block into the lowest invalid way of its set, or else
// evicts the least recently used way, returning the victim's block number
// and state.
func (c *cache) insert(block uint64, st lineState) (victimBlock uint64, victimState lineState, evicted bool) {
	s := block & (c.sets - 1)
	set := c.set(s)
	victim := -1
	for i, l := range set {
		if l.state() == stateI {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = int(c.order[s]>>(4*uint(c.ways-1))) & 0xF
		evicted = true
		victimBlock = set[victim].tag()*c.sets + s
		victimState = set[victim].state()
		c.evicted++
	}
	set[victim] = cacheLine(block/c.sets<<2) | cacheLine(st)
	c.touch(s, victim)
	return victimBlock, victimState, evicted
}

// invalidate drops block if present.
func (c *cache) invalidate(block uint64) {
	if l := c.peek(block); l != nil {
		*l = cacheLine(stateI)
	}
}

// hitRate returns the fraction of lookups that hit.
func (c *cache) hitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
