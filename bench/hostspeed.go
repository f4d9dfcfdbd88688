package main

import (
	"math/rand"
	"slices"
	"time"
)

// refKernelMs is about the reference kernel's median time, in ms, in the
// fastest periods seen on the host the trajectory was first recorded on (a
// 2-vCPU KVM guest).
// Every timing the benchmark reports is scaled to that host speed: raw ×
// refKernelMs / the median of the kernel samples around it. The constant
// only sets the scale; it never changes how two runs compare.
const refKernelMs = 1.6

// speedWindow is how many of the latest kernel samples estimate the host
// speed a measurement is scaled by. The measured loop holds each op's time
// until the next sample, so an op's window has two samples before it and
// one after (about 150 ms around short ops).
const speedWindow = 3

// kernelEvery is how often the measured loop samples the kernel between
// ops.
const kernelEvery = 50 * time.Millisecond

// The host the benchmark was sized on changes speed by up to 70% within
// minutes, also within one run (its vCPUs share physical cores with other
// guests; steal time stays near zero, the instructions simply run slower),
// which moves every raw timing by as much and would swamp any usable
// bound. hostSpeed samples a fixed unit of work owned by the benchmark
// between ops, and every timing is scaled by the speed around it.
// records/ holds runs with both the scaled and the raw timings; README.md
// compares their spreads.
type hostSpeed struct {
	k  *refKernel
	ms []float64 // every sample
	// scale is refKernelMs over the median of the latest speedWindow
	// samples: what a time measured now is multiplied by.
	scale float64
	next  time.Time
}

func newHostSpeed() *hostSpeed { return &hostSpeed{k: newRefKernel(), scale: 1} }

// sample runs the kernel twice and records the second run's time. The
// first run brings the kernel's data back into the caches the program's
// ops evicted. Timed cold, the kernel reads 10–20% slower during the
// measured phase than during set-up, by an amount that depends on how much
// memory the program touches; timed warm, it reads the same in both.
func (h *hostSpeed) sample() {
	h.k.run()
	t0 := time.Now()
	h.k.run()
	t1 := time.Now()
	h.ms = append(h.ms, ms(t1.Sub(t0)))
	var w [speedWindow]float64
	n := copy(w[:], h.ms[max(0, len(h.ms)-speedWindow):])
	slices.Sort(w[:n])
	med := w[n/2]
	if n%2 == 0 {
		med = (w[n/2-1] + w[n/2]) / 2
	}
	h.scale = refKernelMs / med
	h.next = t1.Add(kernelEvery)
}

// adjust converts a duration measured just now to ms at the reference host
// speed.
func (h *hostSpeed) adjust(d time.Duration) float64 { return ms(d) * h.scale }

// due reports whether kernelEvery has passed since the last sample.
func (h *hostSpeed) due(now time.Time) bool { return now.After(h.next) }

// kernelMs is the median kernel time of the run so far.
func (h *hostSpeed) kernelMs() float64 { return quantile(h.ms, 0.5) }

// refKernel is a fixed unit of CPU work of the kinds the program does:
// shortest paths over a fixed random graph, hash-map updates, a sort and
// dense float dot products. It shares no code with the program, so no
// change to the program can move it, and it allocates nothing after
// construction, so it leaves the allocation and memory metrics alone.
type refKernel struct {
	adj       [][]kedge
	dist      []float64
	heap      []kitem
	counts    map[int]int
	keys      []int
	sorted    []int
	mat, v, w []float64
	src       int
	sink      float64
}

type kedge struct {
	to int32
	w  float64
}

type kitem struct {
	v int32
	d float64
}

const (
	kernelNodes  = 4000
	kernelKeys   = 5000
	kernelMatDim = 256
)

func newRefKernel() *refKernel {
	rng := rand.New(rand.NewSource(42))
	k := &refKernel{
		adj:    make([][]kedge, kernelNodes),
		dist:   make([]float64, kernelNodes),
		heap:   make([]kitem, 0, 8*kernelNodes),
		counts: make(map[int]int, 4096),
		keys:   make([]int, kernelKeys),
		sorted: make([]int, kernelKeys),
		mat:    make([]float64, kernelMatDim*kernelMatDim),
		v:      make([]float64, kernelMatDim),
		w:      make([]float64, kernelMatDim),
	}
	for u := range kernelNodes {
		for range 3 {
			v, w := rng.Intn(kernelNodes), rng.Float64()
			k.adj[u] = append(k.adj[u], kedge{int32(v), w})
			k.adj[v] = append(k.adj[v], kedge{int32(u), w})
		}
	}
	for i := range k.keys {
		k.keys[i] = rng.Int()
	}
	for i := range k.mat {
		k.mat[i] = float64(i%97) * 0.01
	}
	return k
}

// run performs the kernel's fixed work once.
func (k *refKernel) run() {
	// Dijkstra from a rotating source, on a binary heap kept in k.heap.
	for i := range k.dist {
		k.dist[i] = 1e18
	}
	k.src = (k.src + 997) % kernelNodes
	k.dist[k.src] = 0
	k.heap = append(k.heap[:0], kitem{int32(k.src), 0})
	for len(k.heap) > 0 {
		it := k.pop()
		if it.d > k.dist[it.v] {
			continue
		}
		for _, e := range k.adj[it.v] {
			if nd := it.d + e.w; nd < k.dist[e.to] {
				k.dist[e.to] = nd
				k.push(kitem{e.to, nd})
			}
		}
	}
	clear(k.counts)
	for i, x := range k.keys {
		k.counts[x&4095] += i
	}
	copy(k.sorted, k.keys)
	slices.Sort(k.sorted)
	for i := range k.v {
		k.v[i] = 1
	}
	for range 6 {
		for i := range k.w {
			acc := 0.0
			for j, x := range k.mat[i*kernelMatDim : (i+1)*kernelMatDim] {
				acc += x * k.v[j]
			}
			k.w[i] = acc / 300
		}
		k.v, k.w = k.w, k.v
	}
	k.sink += k.dist[kernelNodes/2] + float64(len(k.counts)+k.sorted[0]&1) + k.v[3]
}

func (k *refKernel) push(it kitem) {
	h := append(k.heap, it)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].d <= h[i].d {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	k.heap = h
}

func (k *refKernel) pop() kitem {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && h[l].d < h[m].d {
			m = l
		}
		if r < n && h[r].d < h[m].d {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	k.heap = h
	return top
}
