package geo

import (
	"math"
	"sort"
)

// KDTree is a static 2-d tree over a point set, answering nearest-
// neighbour queries in O(log n) expected time. The linear geo.Nearest is
// fine for the station counts of the paper's experiments; the tree is the
// scale path for city-sized deployments (tens of thousands of candidate
// cells), and the dynamic wrapper below supports the placers' append-
// heavy workloads.
type KDTree struct {
	pts   []Point
	nodes []kdNode
	root  int32
}

type kdNode struct {
	idx         int32 // index into pts
	left, right int32 // -1 when absent
	axis        uint8 // 0 = X, 1 = Y
}

// BuildKDTree constructs a balanced tree over pts (copied). An empty
// input yields an empty tree.
func BuildKDTree(pts []Point) *KDTree {
	t := &KDTree{
		pts:   append([]Point(nil), pts...),
		nodes: make([]kdNode, 0, len(pts)),
		root:  -1,
	}
	if len(pts) == 0 {
		return t
	}
	order := make([]int32, len(pts))
	for i := range order {
		order[i] = int32(i)
	}
	t.root = t.build(&kdSorter{pts: t.pts, order: order}, order, 0)
	return t
}

// kdSorter sorts a subrange of the build order along one axis. A single
// instance is threaded through the whole recursive build so constructing
// a tree does not allocate a comparator closure per node — the solver
// builds a tree per solve, and the placers per rebuild.
type kdSorter struct {
	pts   []Point
	order []int32 // current subrange being sorted
	axis  uint8
}

func (s *kdSorter) Len() int { return len(s.order) }

func (s *kdSorter) Less(a, b int) bool {
	pa, pb := s.pts[s.order[a]], s.pts[s.order[b]]
	// Exact comparison is required here: a sort key must induce a
	// total order over the stored coordinates, and epsilon
	// tie-breaking would make it intransitive.
	if s.axis == 0 {
		if pa.X != pb.X { //esharing:allow floateq -- sort key needs an exact total order
			return pa.X < pb.X
		}
	} else if pa.Y != pb.Y { //esharing:allow floateq -- sort key needs an exact total order
		return pa.Y < pb.Y
	}
	return s.order[a] < s.order[b]
}

func (s *kdSorter) Swap(a, b int) {
	s.order[a], s.order[b] = s.order[b], s.order[a]
}

func (t *KDTree) build(sorter *kdSorter, order []int32, depth uint8) int32 {
	if len(order) == 0 {
		return -1
	}
	axis := depth % 2
	sorter.order, sorter.axis = order, axis
	sort.Sort(sorter)
	mid := len(order) / 2
	node := kdNode{idx: order[mid], axis: axis}
	nodeIdx := int32(len(t.nodes))
	t.nodes = append(t.nodes, node)
	left := t.build(sorter, order[:mid], depth+1)
	right := t.build(sorter, order[mid+1:], depth+1)
	t.nodes[nodeIdx].left = left
	t.nodes[nodeIdx].right = right
	return nodeIdx
}

// Len returns the number of indexed points.
func (t *KDTree) Len() int { return len(t.pts) }

// At returns the i-th indexed point.
func (t *KDTree) At(i int) Point { return t.pts[i] }

// Nearest returns the index and distance of the point closest to q, or
// (-1, +Inf) for an empty tree. Ties resolve to the lowest index,
// matching geo.Nearest.
func (t *KDTree) Nearest(q Point) (int, float64) {
	best, bestD2 := t.nearest2(q)
	if best < 0 {
		return -1, math.Inf(1)
	}
	return best, math.Sqrt(bestD2)
}

// nearest2 is Nearest in squared-distance form, letting callers combine
// tree results with linear candidates without losing exactness to an
// intermediate square root.
func (t *KDTree) nearest2(q Point) (int, float64) {
	best := int32(-1)
	bestD2 := math.Inf(1)
	t.search(t.root, q, &best, &bestD2)
	return int(best), bestD2
}

func (t *KDTree) search(node int32, q Point, best *int32, bestD2 *float64) {
	if node < 0 {
		return
	}
	n := t.nodes[node]
	p := t.pts[n.idx]
	d2 := q.Dist2(p)
	// Exact tie on the squared distance intentionally falls through to
	// the lowest-index rule so the tree matches geo.Nearest bit-for-bit.
	if d2 < *bestD2 || (d2 == *bestD2 && (*best < 0 || n.idx < *best)) { //esharing:allow floateq -- exact tie falls to the lowest index, matching geo.Nearest
		*best = n.idx
		*bestD2 = d2
	}
	var diff float64
	if n.axis == 0 {
		diff = q.X - p.X
	} else {
		diff = q.Y - p.Y
	}
	near, far := n.left, n.right
	if diff > 0 {
		near, far = far, near
	}
	t.search(near, q, best, bestD2)
	if diff*diff <= *bestD2 {
		t.search(far, q, best, bestD2)
	}
}

// WithinDist2 appends to dst the indices of every indexed point p with
// Dist2(q, p) < r2 and returns the extended slice, exactly as the
// caller's own squared-distance comparisons would classify them (the
// offline solver's neighbourhood invalidation is one). Passing a reused
// dst[:0] makes repeated queries allocation-free once the slice has
// grown to its working size. Results come back in the tree's
// deterministic traversal order (node, left, right), which depends only
// on the indexed points; r2 <= 0, NaN and empty trees yield no results.
func (t *KDTree) WithinDist2(q Point, r2 float64, dst []int32) []int32 {
	if !(r2 > 0) {
		return dst
	}
	return t.within(t.root, q, r2, dst)
}

func (t *KDTree) within(node int32, q Point, r2 float64, dst []int32) []int32 {
	if node < 0 {
		return dst
	}
	n := t.nodes[node]
	p := t.pts[n.idx]
	if q.Dist2(p) < r2 {
		dst = append(dst, n.idx)
	}
	var diff float64
	if n.axis == 0 {
		diff = q.X - p.X
	} else {
		diff = q.Y - p.Y
	}
	// Any point in the far subtree is at least |diff| from q along the
	// splitting axis, so diff*diff >= r2 proves its distance is >= r and
	// the subtree cannot contain a strict member.
	if diff <= 0 {
		dst = t.within(n.left, q, r2, dst)
		if diff*diff < r2 {
			dst = t.within(n.right, q, r2, dst)
		}
		return dst
	}
	if diff*diff < r2 {
		dst = t.within(n.left, q, r2, dst)
	}
	return t.within(n.right, q, r2, dst)
}

// KNearest collects the k points nearest to q: indices into the tree's
// point set and their squared distances, appended to the reusable dst
// buffers (pass them re-sliced to [:0] for allocation-free queries) and
// returned UNORDERED — callers needing ascending distances sort the
// small result themselves. When the tree holds fewer than k points,
// every point is returned. The traversal maintains a bounded max-heap on
// squared distance and prunes a subtree once the splitting-plane
// distance alone proves it cannot beat the current k-th best; ties at
// the k-th distance resolve by the deterministic traversal order (node,
// left, right), so repeated queries return the same set.
func (t *KDTree) KNearest(q Point, k int, dstIdx []int32, dstD2 []float64) ([]int32, []float64) {
	dstIdx, dstD2 = dstIdx[:0], dstD2[:0]
	if k <= 0 {
		return dstIdx, dstD2
	}
	t.knearest(t.root, q, k, &dstIdx, &dstD2)
	return dstIdx, dstD2
}

func (t *KDTree) knearest(node int32, q Point, k int, idx *[]int32, d2s *[]float64) {
	if node < 0 {
		return
	}
	n := t.nodes[node]
	p := t.pts[n.idx]
	d2 := q.Dist2(p)
	if len(*d2s) < k {
		*idx = append(*idx, n.idx)
		*d2s = append(*d2s, d2)
		siftUpMaxPair(*idx, *d2s)
	} else if d2 < (*d2s)[0] {
		(*idx)[0], (*d2s)[0] = n.idx, d2
		siftDownMaxPair(*idx, *d2s)
	}
	var diff float64
	if n.axis == 0 {
		diff = q.X - p.X
	} else {
		diff = q.Y - p.Y
	}
	near, far := n.left, n.right
	if diff > 0 {
		near, far = far, near
	}
	t.knearest(near, q, k, idx, d2s)
	// The far subtree lies at least |diff| away along the splitting
	// axis; with k results in hand it only matters while it could still
	// beat the current k-th best.
	if len(*d2s) < k || diff*diff < (*d2s)[0] {
		t.knearest(far, q, k, idx, d2s)
	}
}

// siftUpMaxPair restores the max-heap (ordered by d2) after appending.
func siftUpMaxPair(idx []int32, d2s []float64) {
	i := len(d2s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(d2s[parent] < d2s[i]) {
			return
		}
		idx[i], idx[parent] = idx[parent], idx[i]
		d2s[i], d2s[parent] = d2s[parent], d2s[i]
		i = parent
	}
}

// siftDownMaxPair restores the max-heap after replacing the root.
func siftDownMaxPair(idx []int32, d2s []float64) {
	n := len(d2s)
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		m := left
		if right := left + 1; right < n && d2s[left] < d2s[right] {
			m = right
		}
		if !(d2s[i] < d2s[m]) {
			return
		}
		idx[i], idx[m] = idx[m], idx[i]
		d2s[i], d2s[m] = d2s[m], d2s[i]
		i = m
	}
}

// dynamicRebuildSlack bounds the unindexed tail before a rebuild.
const dynamicRebuildSlack = 64

// DynamicIndex maintains nearest-neighbour queries over a growing point
// set: appends go to a linear tail that is folded into the tree once it
// exceeds max(dynamicRebuildSlack, n/4), giving amortised O(log n)
// queries under the placers' append-only workload. Indices are stable
// insertion positions.
type DynamicIndex struct {
	tree  *KDTree
	extra []Point // points appended since the last rebuild
}

// NewDynamicIndex starts from an initial point set.
func NewDynamicIndex(pts []Point) *DynamicIndex {
	return &DynamicIndex{tree: BuildKDTree(pts)}
}

// Len returns the total number of indexed points.
func (d *DynamicIndex) Len() int { return d.tree.Len() + len(d.extra) }

// At returns the i-th point in insertion order.
func (d *DynamicIndex) At(i int) Point {
	if i < d.tree.Len() {
		return d.tree.At(i)
	}
	return d.extra[i-d.tree.Len()]
}

// Insert appends p, returning its stable index.
func (d *DynamicIndex) Insert(p Point) int {
	d.extra = append(d.extra, p)
	idx := d.Len() - 1
	threshold := d.tree.Len() / 4
	if threshold < dynamicRebuildSlack {
		threshold = dynamicRebuildSlack
	}
	if len(d.extra) > threshold {
		d.rebuild()
	}
	return idx
}

// Nearest returns the index and distance of the closest point, or
// (-1, +Inf) when empty. Ties resolve to the lowest insertion index, and
// both the winning index and the returned distance are bit-identical to
// geo.Nearest over the same points: all comparisons use squared
// distances and the square root is taken once at the end, exactly as the
// linear scan does.
func (d *DynamicIndex) Nearest(q Point) (int, float64) {
	bestIdx, bestD2 := d.tree.nearest2(q)
	for k, p := range d.extra {
		if d2 := q.Dist2(p); d2 < bestD2 {
			bestIdx, bestD2 = d.tree.Len()+k, d2
		}
	}
	if bestIdx < 0 {
		return -1, math.Inf(1)
	}
	return bestIdx, math.Sqrt(bestD2)
}

// Points returns the indexed points in insertion order.
func (d *DynamicIndex) Points() []Point {
	out := make([]Point, 0, d.Len())
	out = append(out, d.tree.pts...)
	out = append(out, d.extra...)
	return out
}

func (d *DynamicIndex) rebuild() {
	d.tree = BuildKDTree(d.Points())
	d.extra = nil
}
