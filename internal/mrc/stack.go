package mrc

// Mattson LRU stack with a power-of-two bank depth index.
//
// The classic reuse-distance structure keeps every referenced line on
// one LRU-ordered stack; an access's stack depth (1 = most recently
// used) decides which cache sizes hit it — an LRU cache of capacity C
// hits exactly the accesses whose depth is <= C (Mattson's inclusion
// property). Computing the exact depth costs a balanced tree or
// Fenwick walk per access; this engine only needs depths bucketed at
// power-of-two boundaries (the miss-rate curve is evaluated on the
// power-of-two size ladder), so it uses the cheaper bank organization
// from the parallel power-of-two LRU stack sketch (SNIPPETS.md
// Snippet 2), made exact:
//
//   - All lines of one set live on a doubly-linked list in MRU order.
//   - The list is partitioned into banks: bank 0 is depth 1, bank b
//     covers depths (2^(b-1), 2^b]. Each bank remembers its bottom
//     node (the node at depth 2^b).
//   - A hit at bank b increments hist[b] and moves the node to the
//     front; every bank above b then shifts its bottom node down one
//     bank (the boundary ripple), which is O(log depth) pointer work
//     instead of O(depth).
//   - Nodes deeper than the deepest tracked bank carry the overflow
//     sentinel bank; hits there are misses at every size on the
//     ladder.
//
// One stack instance serves one SET of a set-indexed LRU geometry:
// hits at bank b <= j are hits in an associativity-2^j set. The
// fully-associative model is the single-set special case. Sets are
// independent, which is what makes set-range sharding exact.
type stack struct {
	banks int // tracked depth buckets; hist has banks+1 (overflow last)

	// Node storage, shared across every set of one model shard: links
	// and bank index. Parallel arrays beat a struct slice here — the
	// hot ripple loop touches prev/bank only.
	prev, next []int32
	line       []uint32
	bank       []uint16

	idx map[uint32]int32 // line address -> node

	// Per-local-set list state: head/tail node, current size, and the
	// bank-bottom index (bottoms[set*banks+b] = node at depth 2^b, -1
	// while the set holds fewer than 2^b lines).
	heads, tails []int32
	sizes        []uint32
	bottoms      []int32

	hist []uint64 // hist[b] = hits at bank b; hist[banks] = beyond-ladder
	cold uint64   // first-touch accesses (compulsory misses)

	// lastLine short-circuits consecutive accesses to one line — the
	// dominant pattern in real traces — to a histogram increment.
	lastLine  uint32
	lastValid bool
}

// overflowBank is the sentinel for nodes deeper than the tracked
// ladder, stored as banks (one past the last real bank).
const noNode = int32(-1)

// newStack builds the per-set stacks for localSets sets of one model
// shard, with depth buckets up to associativity 2^(banks-1).
func newStack(localSets, banks int) *stack {
	s := &stack{
		banks:   banks,
		idx:     make(map[uint32]int32),
		heads:   make([]int32, localSets),
		tails:   make([]int32, localSets),
		sizes:   make([]uint32, localSets),
		bottoms: make([]int32, localSets*banks),
		hist:    make([]uint64, banks+1),
	}
	for i := range s.heads {
		s.heads[i] = noNode
		s.tails[i] = noNode
	}
	for i := range s.bottoms {
		s.bottoms[i] = noNode
	}
	return s
}

// access feeds one line address (already reduced to this shard's local
// set index) through the set's stack. The steady-state path — every
// line already seen — performs no allocation.
func (s *stack) access(localSet uint32, line uint32) {
	if s.lastValid && line == s.lastLine {
		s.hist[0]++
		return
	}
	s.lastLine = line
	s.lastValid = true

	ni, ok := s.idx[line]
	if !ok {
		s.cold++
		s.push(localSet, line)
		return
	}
	b := int(s.bank[ni])
	if b >= s.banks {
		s.hist[s.banks]++
	} else {
		s.hist[b]++
	}
	head := s.heads[localSet]
	if head == ni {
		return // depth 1, no reordering
	}
	// Unlink (ni is not the head, so prev exists).
	oldPrev := s.prev[ni]
	nx := s.next[ni]
	s.next[oldPrev] = nx
	if nx != noNode {
		s.prev[nx] = oldPrev
	} else {
		s.tails[localSet] = oldPrev
	}
	// Relink at the front.
	s.prev[ni] = noNode
	s.next[ni] = head
	s.prev[head] = ni
	s.heads[localSet] = ni
	// Boundary ripple: every bank shallower than b pushes its bottom
	// node down one bank. Their bottoms exist because the accessed
	// node sat deeper than 2^k for every k < b.
	base := int(localSet) * s.banks
	top := b
	if top > s.banks {
		top = s.banks
	}
	for k := 0; k < top; k++ {
		bi := s.bottoms[base+k]
		s.bank[bi]++
		s.bottoms[base+k] = s.prev[bi]
	}
	// If the accessed node was its own bank's bottom, the node above
	// it (its old prev) takes over.
	if b < s.banks && s.bottoms[base+b] == ni {
		s.bottoms[base+b] = oldPrev
	}
	s.bank[ni] = 0
}

// feed drives the accesses of addrs whose set (line & mask) lies in
// this shard's range [lo, hi) through their stacks and returns how
// many it took.
func (s *stack) feed(addrs []uint32, lineShift uint, mask, lo, hi uint32) uint64 {
	n := uint64(0)
	for _, a := range addrs {
		line := a >> lineShift
		set := line & mask
		if set < lo || set >= hi {
			continue
		}
		s.access(set-lo, line)
		n++
	}
	return n
}

// push inserts a first-touch line at the front of its set's stack.
func (s *stack) push(localSet uint32, line uint32) {
	ni := int32(len(s.line))
	s.line = append(s.line, line)
	s.prev = append(s.prev, noNode)
	s.next = append(s.next, noNode)
	s.bank = append(s.bank, 0)
	s.idx[line] = ni

	head := s.heads[localSet]
	s.next[ni] = head
	if head != noNode {
		s.prev[head] = ni
	} else {
		s.tails[localSet] = ni
	}
	s.heads[localSet] = ni
	s.sizes[localSet]++
	n := s.sizes[localSet]

	base := int(localSet) * s.banks
	for k := 0; k < s.banks; k++ {
		bi := s.bottoms[base+k]
		if bi != noNode {
			// The old depth-2^k node is now at depth 2^k+1: bank k+1.
			s.bank[bi]++
			s.bottoms[base+k] = s.prev[bi]
			continue
		}
		if n == 1<<uint(k) {
			// The set just reached 2^k lines: the tail is the new bank
			// bottom (its bank is already k — it was demoted from bank
			// k-1 above, or it is the first node for k == 0).
			s.bottoms[base+k] = s.tails[localSet]
		}
		break
	}
}

// hits returns the cumulative hit count for associativity 2^j: every
// access whose depth bucket is at most j.
func (s *stack) hits(j int) uint64 {
	var h uint64
	for b := 0; b <= j && b < len(s.hist); b++ {
		h += s.hist[b]
	}
	return h
}

// merge folds another shard's histogram of the same model into s
// (set-range shards partition the sets, so plain sums are exact).
func (s *stack) merge(o *stack) {
	for b := range s.hist {
		s.hist[b] += o.hist[b]
	}
	s.cold += o.cold
}

// coldCount returns the first-touch (compulsory miss) count.
func (s *stack) coldCount() uint64 { return s.cold }
