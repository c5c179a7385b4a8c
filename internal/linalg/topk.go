package linalg

// Neighbor is a candidate search result: a vector id and its distance to
// the query under the active metric (smaller is better). The JSON form is
// the server's wire form of a search hit.
type Neighbor struct {
	ID   int64   `json:"id"`
	Dist float32 `json:"dist"`
}

// TopK maintains the k nearest neighbors seen so far using a bounded
// max-heap keyed on distance: the root is the worst retained neighbor, so a
// new candidate replaces it in O(log k) when closer.
//
// A collector may carry an exclusion set (Exclude): an id in it is never
// retained, as if it had not been offered. The set is consulted only for a
// candidate that would be retained otherwise — while the heap fills, or
// when it beats the current worst — so the common reject stays a single
// comparison, and an empty or nil set costs a length check per retained
// candidate.
//
// The zero value is not usable; construct with NewTopK.
type TopK struct {
	k    int
	heap []Neighbor
	excl map[int64]struct{}
}

// NewTopK returns a collector for the k nearest neighbors. k must be >= 1.
func NewTopK(k int) *TopK {
	if k < 1 {
		panic("linalg: TopK requires k >= 1")
	}
	return &TopK{k: k, heap: make([]Neighbor, 0, k)}
}

// Reset empties the collector, drops its exclusion set and re-targets it to
// the k nearest, keeping the heap's backing array so a pooled collector
// performs no steady-state allocations. It returns the receiver for call
// chaining, and makes the zero TopK usable.
func (t *TopK) Reset(k int) *TopK {
	if k < 1 {
		panic("linalg: TopK requires k >= 1")
	}
	t.k = k
	t.heap = t.heap[:0]
	t.excl = nil
	return t
}

// Exclude makes every later offer of an id in set a no-op, and returns the
// receiver for call chaining. The collector only reads the set, and holds
// it until the next Reset or Exclude: Exclude(nil) lets go of it, which a
// pool does before it shelves the collector. Neighbors already retained
// are not re-checked.
func (t *TopK) Exclude(set map[int64]struct{}) *TopK {
	t.excl = set
	return t
}

// Excluded returns the collector's exclusion set (nil when it has none), so
// a private collector feeding this one can be reset to exclude the same
// ids.
func (t *TopK) Excluded() map[int64]struct{} { return t.excl }

// excluded reports whether id is in the exclusion set.
func (t *TopK) excluded(id int64) bool {
	if len(t.excl) == 0 {
		return false
	}
	_, ok := t.excl[id]
	return ok
}

// Len reports how many neighbors are currently retained.
func (t *TopK) Len() int { return len(t.heap) }

// Full reports whether k neighbors are retained.
func (t *TopK) Full() bool { return len(t.heap) == t.k }

// Worst returns the distance of the worst retained neighbor. It panics when
// the collector is empty; callers should guard with Full or Len.
func (t *TopK) Worst() float32 { return t.heap[0].Dist }

// Push offers a candidate. It reports whether the candidate was retained;
// an excluded id never is.
func (t *TopK) Push(id int64, dist float32) bool {
	if len(t.heap) < t.k {
		if t.excluded(id) {
			return false
		}
		t.heap = append(t.heap, Neighbor{ID: id, Dist: dist})
		t.siftUp(len(t.heap) - 1)
		return true
	}
	if dist >= t.heap[0].Dist || t.excluded(id) {
		return false
	}
	t.heap[0] = Neighbor{ID: id, Dist: dist}
	t.siftDown(0)
	return true
}

// PushBlock offers the paired candidates ids[i]/dists[i] in index order,
// with exactly the outcome of calling Push once per pair. It is the bulk
// fast path of the blocked scans: once the heap is full the common reject
// case is a single comparison against a locally cached worst distance,
// with no per-candidate method call or heap-size check.
func (t *TopK) PushBlock(ids []int64, dists []float32) {
	i := 0
	for ; len(t.heap) < t.k && i < len(dists); i++ {
		t.Push(ids[i], dists[i])
	}
	if i >= len(dists) {
		return
	}
	worst := t.heap[0].Dist
	for ; i < len(dists); i++ {
		d := dists[i]
		if d >= worst || t.excluded(ids[i]) {
			continue
		}
		t.heap[0] = Neighbor{ID: ids[i], Dist: d}
		t.siftDown(0)
		worst = t.heap[0].Dist
	}
}

// Results returns the retained neighbors sorted by ascending distance and
// empties the collector.
func (t *TopK) Results() []Neighbor {
	out := make([]Neighbor, 0, len(t.heap))
	return t.AppendResults(out)
}

// AppendResults appends the retained neighbors, sorted by ascending
// distance, to dst and returns the extended slice, emptying the collector.
// It is the allocation-free variant of Results for callers that own a
// reusable destination buffer (or have pre-sized the caller-visible result
// slice).
func (t *TopK) AppendResults(dst []Neighbor) []Neighbor {
	base := len(dst)
	dst = append(dst, t.heap...)
	out := dst[base:]
	// Heap-sort out in place: repeatedly move the current worst (root)
	// to the end of the shrinking prefix.
	for i := len(t.heap) - 1; i >= 0; i-- {
		out[i] = t.heap[0]
		last := len(t.heap) - 1
		t.heap[0] = t.heap[last]
		t.heap = t.heap[:last]
		if last > 0 {
			t.siftDown(0)
		}
	}
	return dst
}

func (t *TopK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if t.heap[parent].Dist >= t.heap[i].Dist {
			return
		}
		t.heap[parent], t.heap[i] = t.heap[i], t.heap[parent]
		i = parent
	}
}

func (t *TopK) siftDown(i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && t.heap[l].Dist > t.heap[largest].Dist {
			largest = l
		}
		if r < n && t.heap[r].Dist > t.heap[largest].Dist {
			largest = r
		}
		if largest == i {
			return
		}
		t.heap[i], t.heap[largest] = t.heap[largest], t.heap[i]
		i = largest
	}
}
