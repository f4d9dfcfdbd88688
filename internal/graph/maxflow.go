package graph

// MaxFlow computes the maximum s→t flow with integer capacities using
// Dinic's algorithm. The evaluation harness uses it as an oracle: the
// number of connections any selection algorithm (ECE phase B, REPS's EPS)
// can assemble for one SD pair from realized segments is at most the max
// flow of the availability graph with unit node capacities relaxed.
//
// Arcs are numbered in insertion order, two per AddEdge or AddUndirected
// call: the returned index is the forward arc and the next one its
// reverse, so a capacity vector for Reset lists both arcs of every call,
// in call order.
type MaxFlow struct {
	n     int
	head  []int
	next  []int
	to    []int
	cap   []int
	level []int
	queue []int
	iter  []int
}

// NewMaxFlow creates a flow network with n nodes.
func NewMaxFlow(n int) *MaxFlow {
	head := make([]int, n)
	for i := range head {
		head[i] = -1
	}
	return &MaxFlow{n: n, head: head}
}

// AddEdge inserts a directed edge with the given capacity (and a residual
// reverse edge of capacity 0). It returns the forward arc's index.
func (m *MaxFlow) AddEdge(from, to, capacity int) int {
	return m.addArcs(from, to, capacity, 0)
}

// AddUndirected inserts an undirected unit-type edge: capacity in both
// directions. It returns the index of the a→b arc; b→a is the next.
func (m *MaxFlow) AddUndirected(a, b, capacity int) int {
	return m.addArcs(a, b, capacity, capacity)
}

// addArcs inserts the arc from→to of capacity fwd and its reverse of
// capacity rev, and returns the forward arc's index.
func (m *MaxFlow) addArcs(from, to, fwd, rev int) int {
	id := len(m.to)
	m.to = append(m.to, to)
	m.cap = append(m.cap, fwd)
	m.next = append(m.next, m.head[from])
	m.head[from] = id

	m.to = append(m.to, from)
	m.cap = append(m.cap, rev)
	m.next = append(m.next, m.head[to])
	m.head[to] = id + 1
	return id
}

// Reset sets every arc's residual capacity to caps[arc], one entry per
// arc in the numbering above, so one network solves again, or solves
// under other capacities over the same arcs. The search buffers are
// kept. It panics if caps does not have one entry per arc.
func (m *MaxFlow) Reset(caps []int) {
	if len(caps) != len(m.cap) {
		panic("graph: MaxFlow.Reset given a capacity per arc of another network")
	}
	copy(m.cap, caps)
}

func (m *MaxFlow) bfs(s, t int) bool {
	if m.level == nil {
		m.level = make([]int, m.n)
	}
	for i := range m.level {
		m.level[i] = -1
	}
	queue := append(m.queue[:0], s)
	m.level[s] = 0
	for k := 0; k < len(queue); k++ {
		v := queue[k]
		for e := m.head[v]; e != -1; e = m.next[e] {
			if m.cap[e] > 0 && m.level[m.to[e]] < 0 {
				m.level[m.to[e]] = m.level[v] + 1
				queue = append(queue, m.to[e])
			}
		}
	}
	m.queue = queue
	return m.level[t] >= 0
}

func (m *MaxFlow) dfs(v, t, f int) int {
	if v == t {
		return f
	}
	for ; m.iter[v] != -1; m.iter[v] = m.next[m.iter[v]] {
		e := m.iter[v]
		u := m.to[e]
		if m.cap[e] > 0 && m.level[u] == m.level[v]+1 {
			d := m.dfs(u, t, min(f, m.cap[e]))
			if d > 0 {
				m.cap[e] -= d
				m.cap[e^1] += d
				return d
			}
		}
	}
	return 0
}

// Solve returns the maximum flow from s to t. It consumes the
// capacities: solve again only after Reset.
func (m *MaxFlow) Solve(s, t int) int {
	if s == t {
		return 0
	}
	flow := 0
	for m.bfs(s, t) {
		m.iter = append(m.iter[:0], m.head...)
		for {
			f := m.dfs(s, t, 1<<60)
			if f == 0 {
				break
			}
			flow += f
		}
	}
	return flow
}
