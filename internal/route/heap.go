package route

import (
	"math"
	"math/bits"
)

// pqEntry is one open-list entry. key is math.Float64bits(f): for the finite,
// non-negative f values A* pushes (path cost plus a non-negative heuristic,
// never -0 or NaN), unsigned order on the bit patterns is exactly float order,
// and equal keys are exactly equal floats.
type pqEntry struct {
	key  uint64
	cell int32
}

// maxKey is the sentinel key kept one slot past the heap's end. It is not
// smaller than any real key, so a child choice that reaches it always takes
// the real first child.
const maxKey = math.MaxUint64

// pqHeap is the A* open list: a binary min-heap of (cell, f) entries that
// pops in exactly the order container/heap would with Less = (f_i < f_j).
//
// push is container/heap's sift-up with the swaps replaced by a moving hole.
//
// pop is a bottom-up (Floyd) sift. container/heap swaps the last element x to
// the root, then walks it down: at each node it takes the first child unless
// the second is strictly smaller, and it stops once that child is not strictly
// smaller than x. That child choice never looks at x, so the path it would
// walk is the hole's path here: from the root to a leaf, first child on ties.
// Keys along the path never decrease (heap order), so container/heap stops x
// just above the first path key ≥ x. pop moves every path entry up one level,
// drops x into the leaf, and lets x rise while its parent is ≥ x, which
// undoes the moves past exactly those keys ≥ x. Both leave every entry in the
// same slot.
//
// The child choice is branch-free: the borrow of key[second] − key[first] is
// 1 exactly when the second child is strictly smaller. The sentinel at
// e[len] lets the choice read a second child without a bounds test. The
// heap's storage is reused across searches; reset keeps its capacity.
type pqHeap struct {
	e []pqEntry // e[:len] is the heap, e[len] the sentinel
}

// len returns the number of queued entries.
func (h *pqHeap) len() int { return len(h.e) - 1 }

// reset empties the heap. It must run before the first push.
func (h *pqHeap) reset() {
	h.e = append(h.e[:0], pqEntry{key: maxKey})
}

func (h *pqHeap) push(cell int32, f float64) {
	key := math.Float64bits(f)
	j := len(h.e) - 1 // the sentinel's slot becomes the hole
	h.e = append(h.e, pqEntry{key: maxKey})
	e := h.e
	for j > 0 {
		i := (j - 1) / 2
		if key >= e[i].key {
			break
		}
		e[j] = e[i]
		j = i
	}
	e[j] = pqEntry{key: key, cell: cell}
}

func (h *pqHeap) pop() (int32, float64) {
	e := h.e
	top := e[0]
	n := len(e) - 2 // entries left after this pop
	x := e[n]
	e[n] = pqEntry{key: maxKey}
	h.e = e[:n+1]
	if n == 0 {
		return top.cell, math.Float64frombits(top.key)
	}
	// Walk the hole from the root to a leaf along the smaller child.
	i := 0
	for j := 1; j < n; j = 2*i + 1 {
		_, second := bits.Sub64(e[j+1].key, e[j].key, 0)
		j += int(second)
		e[i] = e[j]
		i = j
	}
	// Let x rise while its parent is not strictly smaller.
	for i > 0 {
		p := (i - 1) / 2
		if e[p].key < x.key {
			break
		}
		e[i] = e[p]
		i = p
	}
	e[i] = x
	return top.cell, math.Float64frombits(top.key)
}
