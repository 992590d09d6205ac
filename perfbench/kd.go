package main

import (
	"container/heap"
	"math/rand"

	"github.com/coax-index/coax/coax"
)

// kdTree answers k-nearest-neighbour queries over a uniform sample of a
// table's rows in normalised coordinates (each column divided by its range,
// so ids and degrees weigh alike). The benchmark uses it to build the
// paper's k-NN query rectangles: the bounding box of the k records nearest
// to a random record. workload.KNNRects does the same by brute force and
// costs ~30 ms per rectangle at 2M rows; the tree answers in microseconds.
type kdTree struct {
	dims  int
	pts   []float64 // normalised sample points, row-major
	ord   []int32   // sample point ids in tree order
	rowOf []int32   // table row of each sample point
	scale []float64
}

const kdLeaf = 16

func newKDTree(t *coax.Table, sampleRows int, rng *rand.Rand) *kdTree {
	n, dims := t.Len(), t.Dims()
	if sampleRows > n {
		sampleRows = n
	}
	kd := &kdTree{dims: dims, scale: make([]float64, dims)}
	perm := rng.Perm(n)[:sampleRows]
	lo := make([]float64, dims)
	hi := make([]float64, dims)
	for d := range lo {
		lo[d], hi[d] = t.Row(perm[0])[d], t.Row(perm[0])[d]
	}
	for _, ri := range perm {
		row := t.Row(ri)
		for d, v := range row {
			lo[d] = min(lo[d], v)
			hi[d] = max(hi[d], v)
		}
	}
	for d := range kd.scale {
		if hi[d] > lo[d] {
			kd.scale[d] = 1 / (hi[d] - lo[d])
		}
	}
	kd.pts = make([]float64, 0, sampleRows*dims)
	kd.ord = make([]int32, sampleRows)
	kd.rowOf = make([]int32, sampleRows)
	for i, ri := range perm {
		for d, v := range t.Row(ri) {
			kd.pts = append(kd.pts, v*kd.scale[d])
		}
		kd.ord[i] = int32(i)
		kd.rowOf[i] = int32(ri)
	}
	kd.build(0, sampleRows, 0)
	return kd
}

func (kd *kdTree) coord(i int, d int) float64 { return kd.pts[int(kd.ord[i])*kd.dims+d] }

// build arranges ord[lo:hi] so that the median along dimension depth%dims
// sits at the midpoint, smaller coordinates before it and larger after,
// recursively.
func (kd *kdTree) build(lo, hi, depth int) {
	if hi-lo <= kdLeaf {
		return
	}
	d := depth % kd.dims
	mid := (lo + hi) / 2
	kd.selectNth(lo, hi, mid, d)
	kd.build(lo, mid, depth+1)
	kd.build(mid+1, hi, depth+1)
}

// selectNth is quickselect over ord[lo:hi] by coordinate d.
func (kd *kdTree) selectNth(lo, hi, nth, d int) {
	for hi-lo > 1 {
		p := kd.coord((lo+hi)/2, d)
		i, j := lo, hi-1
		for i <= j {
			for kd.coord(i, d) < p {
				i++
			}
			for kd.coord(j, d) > p {
				j--
			}
			if i <= j {
				kd.ord[i], kd.ord[j] = kd.ord[j], kd.ord[i]
				i++
				j--
			}
		}
		switch {
		case nth <= j:
			hi = j + 1
		case nth >= i:
			lo = i
		default:
			return
		}
	}
}

type neighbour struct {
	dist float64
	pt   int32
}

// maxHeap keeps the k best candidates with the worst on top.
type maxHeap []neighbour

func (h maxHeap) Len() int           { return len(h) }
func (h maxHeap) Less(i, j int) bool { return h[i].dist > h[j].dist }
func (h maxHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x any)        { *h = append(*h, x.(neighbour)) }
func (h *maxHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// knnRect returns the bounding box, in table coordinates, of the seed row
// and the k sample rows nearest to it.
func (kd *kdTree) knnRect(t *coax.Table, seed []float64, k int) coax.Rect {
	q := make([]float64, kd.dims)
	for d, v := range seed {
		q[d] = v * kd.scale[d]
	}
	h := make(maxHeap, 0, k+1)
	kd.search(q, k, &h, 0, len(kd.ord), 0)
	r := coax.NewRect(seed, seed)
	for _, nb := range h {
		row := t.Row(int(kd.rowOf[nb.pt]))
		for d, v := range row {
			r.Min[d] = min(r.Min[d], v)
			r.Max[d] = max(r.Max[d], v)
		}
	}
	return r
}

func (kd *kdTree) consider(q []float64, k int, h *maxHeap, i int) {
	pt := kd.ord[i]
	base := int(pt) * kd.dims
	dist := 0.0
	for d, v := range q {
		dv := kd.pts[base+d] - v
		dist += dv * dv
	}
	if h.Len() < k {
		heap.Push(h, neighbour{dist, pt})
	} else if dist < (*h)[0].dist {
		(*h)[0] = neighbour{dist, pt}
		heap.Fix(h, 0)
	}
}

func (kd *kdTree) search(q []float64, k int, h *maxHeap, lo, hi, depth int) {
	if hi-lo <= kdLeaf {
		for i := lo; i < hi; i++ {
			kd.consider(q, k, h, i)
		}
		return
	}
	d := depth % kd.dims
	mid := (lo + hi) / 2
	kd.consider(q, k, h, mid)
	diff := q[d] - kd.coord(mid, d)
	if diff < 0 {
		kd.search(q, k, h, lo, mid, depth+1)
		if h.Len() < k || diff*diff < (*h)[0].dist {
			kd.search(q, k, h, mid+1, hi, depth+1)
		}
	} else {
		kd.search(q, k, h, mid+1, hi, depth+1)
		if h.Len() < k || diff*diff < (*h)[0].dist {
			kd.search(q, k, h, lo, mid, depth+1)
		}
	}
}
