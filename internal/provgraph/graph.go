package provgraph

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/types"
)

// Graph is a provenance graph: a set of vertices plus directed edges, with
// the lookup indices the GCA needs (open exist/believe vertices, appear
// vertices by instant). Index keys are small structs of strings, so a
// lookup allocates nothing. The zero value is not ready; use New.
type Graph struct {
	vertices map[string]*Vertex
	order    []*Vertex // insertion order, for deterministic iteration
	// edges is keyed by endpoint pointers: Add deduplicates by ID, so within
	// one graph a pointer stands for exactly one ID.
	edges map[[2]*Vertex]struct{}

	// openExist maps host|tuple to the open exist vertex, if any.
	openExist map[hostTuple]*Vertex
	// openBelieve maps host|origin|tuple to the open believe vertex.
	openBelieve map[originTuple]*Vertex
	// believeAny maps host|tuple to the open believe vertices of every
	// origin: exactly the values of openBelieve with that host and tuple,
	// in the order they were indexed.
	believeAny map[hostTuple][]*Vertex
	// instant indexes appear/disappear/believe-appear/believe-disappear
	// vertices by type|host|tuple|time (origin-wildcard, matching the
	// pseudocode's believe-appear(i,?,τ,t) lookups).
	instant map[instantAt][]*Vertex
}

type hostTuple struct {
	host  types.NodeID
	tuple string
}

type originTuple struct {
	host, origin types.NodeID
	tuple        string
}

type instantAt struct {
	typ   VertexType
	host  types.NodeID
	tuple string
	at    types.Time
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		vertices:    make(map[string]*Vertex),
		edges:       make(map[[2]*Vertex]struct{}),
		openExist:   make(map[hostTuple]*Vertex),
		openBelieve: make(map[originTuple]*Vertex),
		believeAny:  make(map[hostTuple][]*Vertex),
		instant:     make(map[instantAt][]*Vertex),
	}
}

// Grow sizes an empty graph for about n vertices, so a graph built in one
// pass (a fresh auditor's first commit) does not rehash its maps as it
// grows. Go maps cannot grow in place, so Grow does nothing once the graph
// holds a vertex.
func (g *Graph) Grow(n int) {
	if len(g.order) != 0 || len(g.edges) != 0 {
		return
	}
	g.vertices = make(map[string]*Vertex, n)
	g.order = make([]*Vertex, 0, n)
	g.edges = make(map[[2]*Vertex]struct{}, n)
	g.instant = make(map[instantAt][]*Vertex, n/2)
}

func hostTupleKey(host types.NodeID, tup types.Tuple) hostTuple {
	return hostTuple{host, tup.Key()}
}

func believeKey(host, origin types.NodeID, tup types.Tuple) originTuple {
	return originTuple{host, origin, tup.Key()}
}

func instantKey(t VertexType, host types.NodeID, tup types.Tuple, at types.Time) instantAt {
	return instantAt{t, host, tup.Key(), at}
}

// Add inserts v if no vertex with the same ID exists and returns the vertex
// that is in the graph afterwards (v or the pre-existing one).
func (g *Graph) Add(v *Vertex) *Vertex {
	id := v.ID()
	if old, ok := g.vertices[id]; ok {
		return old
	}
	g.vertices[id] = v
	g.order = append(g.order, v)
	switch v.Type {
	case VExist:
		if v.Open() {
			g.openExist[hostTupleKey(v.Host, v.Tuple)] = v
		}
	case VBelieve:
		if v.Open() {
			g.indexOpenBelieve(v)
		}
	case VAppear, VDisappear, VBelieveAppear, VBelieveDisappear:
		k := instantKey(v.Type, v.Host, v.Tuple, v.T1)
		g.instant[k] = append(g.instant[k], v)
	}
	return v
}

// indexOpenBelieve makes v the open believe vertex for its host, origin and
// tuple, replacing any vertex indexed there before.
func (g *Graph) indexOpenBelieve(v *Vertex) {
	k := believeKey(v.Host, v.Remote, v.Tuple)
	g.unindexOpenBelieve(k)
	g.openBelieve[k] = v
	ak := hostTuple{k.host, k.tuple}
	g.believeAny[ak] = append(g.believeAny[ak], v)
}

// unindexOpenBelieve drops whatever open believe vertex is indexed under k.
func (g *Graph) unindexOpenBelieve(k originTuple) {
	old := g.openBelieve[k]
	if old == nil {
		return
	}
	delete(g.openBelieve, k)
	ak := hostTuple{k.host, k.tuple}
	vs := g.believeAny[ak]
	for i, w := range vs {
		if w == old {
			vs = append(vs[:i], vs[i+1:]...)
			break
		}
	}
	if len(vs) == 0 {
		delete(g.believeAny, ak)
	} else {
		g.believeAny[ak] = vs
	}
}

// Get returns the vertex with the given ID, or nil.
func (g *Graph) Get(id string) *Vertex { return g.vertices[id] }

// Vertices returns all vertices in insertion order.
func (g *Graph) Vertices() []*Vertex { return g.order }

// Len returns the number of vertices.
func (g *Graph) Len() int { return len(g.order) }

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int { return len(g.edges) }

// AddEdge inserts the edge (from → to) if it is not already present. It
// returns an error for edges outside Table 1; the GCA never produces such
// edges, so an error indicates a bug in the caller.
func (g *Graph) AddEdge(from, to *Vertex) error {
	if !LegalEdge(from.Type, to.Type) {
		return fmt.Errorf("provgraph: illegal edge %s -> %s", from.Type, to.Type)
	}
	k := [2]*Vertex{from, to}
	if _, ok := g.edges[k]; ok {
		return nil
	}
	g.edges[k] = struct{}{}
	from.out = append(from.out, to)
	to.in = append(to.in, from)
	return nil
}

// HasEdge reports whether the edge (from → to) is present.
func (g *Graph) HasEdge(from, to *Vertex) bool {
	_, ok := g.edges[[2]*Vertex{from, to}]
	return ok
}

// OpenExist returns the open exist vertex for (host, tuple), or nil.
func (g *Graph) OpenExist(host types.NodeID, tup types.Tuple) *Vertex {
	return g.openExist[hostTupleKey(host, tup)]
}

// OpenBelieve returns the open believe vertex for (host, origin, tuple), or
// nil.
func (g *Graph) OpenBelieve(host, origin types.NodeID, tup types.Tuple) *Vertex {
	return g.openBelieve[believeKey(host, origin, tup)]
}

// OpenBelieveAny returns an open believe vertex on host for tuple from any
// origin (the pseudocode's believe(i,?,τ,[?,∞)) lookup). When several
// origins match, the one with the smallest origin ID is returned so the
// result is deterministic.
func (g *Graph) OpenBelieveAny(host types.NodeID, tup types.Tuple) *Vertex {
	var best *Vertex
	for _, v := range g.believeAny[hostTupleKey(host, tup)] {
		if best == nil || v.Remote < best.Remote {
			best = v
		}
	}
	return best
}

// CloseInterval closes an open exist/believe vertex at time t and
// deregisters it from the open index.
func (g *Graph) CloseInterval(v *Vertex, t types.Time) {
	if !v.Open() {
		return
	}
	v.T2 = t
	switch v.Type {
	case VExist:
		delete(g.openExist, hostTupleKey(v.Host, v.Tuple))
	case VBelieve:
		g.unindexOpenBelieve(believeKey(v.Host, v.Remote, v.Tuple))
	}
}

// AtInstant returns the vertices of the given instant type for (host, tuple)
// at exactly time t, in deterministic order.
func (g *Graph) AtInstant(t VertexType, host types.NodeID, tup types.Tuple, at types.Time) []*Vertex {
	vs := g.instant[instantKey(t, host, tup, at)]
	out := append([]*Vertex(nil), vs...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// FirstInstant returns the first vertex AtInstant would return, or nil. It
// scans for the minimum ID instead of copying and sorting the bucket; this
// is the GCA's single most frequent lookup.
func (g *Graph) FirstInstant(t VertexType, host types.NodeID, tup types.Tuple, at types.Time) *Vertex {
	var best *Vertex
	for _, v := range g.instant[instantKey(t, host, tup, at)] {
		if best == nil || v.ID() < best.ID() {
			best = v
		}
	}
	return best
}

// SetColor upgrades v's color following the dominance order
// red > black > yellow; downgrades are ignored (Appendix B.3: color
// transitions only move up).
func (g *Graph) SetColor(v *Vertex, c Color) {
	if c.Dominates(v.Color) {
		v.Color = c
	}
}

// ByHost returns the vertices hosted on node id, in insertion order.
func (g *Graph) ByHost(id types.NodeID) []*Vertex {
	var out []*Vertex
	for _, v := range g.order {
		if v.Host == id {
			out = append(out, v)
		}
	}
	return out
}

// TupleVertices returns all vertices about the given tuple on host, in
// insertion order. It is the entry point for provenance queries ("explain
// bestCost(@c,d,5)").
func (g *Graph) TupleVertices(host types.NodeID, tup types.Tuple) []*Vertex {
	var out []*Vertex
	for _, v := range g.order {
		if v.Host == host && v.Tuple.Key() == tup.Key() {
			out = append(out, v)
		}
	}
	return out
}

// RedVertices returns all red vertices, in insertion order.
func (g *Graph) RedVertices() []*Vertex {
	var out []*Vertex
	for _, v := range g.order {
		if v.Color == Red {
			out = append(out, v)
		}
	}
	return out
}

// HostsWithColor returns the set of hosts that have at least one vertex of
// color c, sorted.
func (g *Graph) HostsWithColor(c Color) []types.NodeID {
	seen := map[types.NodeID]bool{}
	for _, v := range g.order {
		if v.Color == c {
			seen[v.Host] = true
		}
	}
	out := make([]types.NodeID, 0, len(seen))
	for h := range seen {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Subgraph reports whether every vertex and edge of g is present in h, with
// h's colors at least as dominant and intervals equal or narrowed (the ⊆*
// relation of Appendix B.2, used to state monotonicity).
func (g *Graph) Subgraph(h *Graph) bool {
	for _, v := range g.order {
		w := h.Get(v.ID())
		if w == nil {
			return false
		}
		if !w.Color.Dominates(v.Color) {
			return false
		}
		if v.Interval() && w.T2 > v.T2 {
			return false
		}
	}
	for e := range g.edges {
		if !h.HasEdge(h.Get(e[0].ID()), h.Get(e[1].ID())) {
			return false
		}
	}
	return true
}

// Project returns the projection G|i of Appendix B.2: all vertices hosted
// on node id, plus any send/receive vertices on other nodes connected to
// them by an edge (those are copied with color yellow, since the projection
// cannot vouch for remote vertices).
func (g *Graph) Project(id types.NodeID) *Graph {
	p := New()
	for _, v := range g.order {
		if v.Host != id {
			continue
		}
		cp := *v
		cp.in, cp.out = nil, nil
		p.Add(&cp)
	}
	remote := func(v *Vertex) {
		if v.Host == id || (v.Type != VSend && v.Type != VReceive) {
			return
		}
		if p.Get(v.ID()) != nil {
			return
		}
		cp := *v
		cp.in, cp.out = nil, nil
		cp.Color = Yellow
		p.Add(&cp)
	}
	for _, v := range g.order {
		if v.Host != id {
			continue
		}
		for _, w := range v.in {
			remote(w)
		}
		for _, w := range v.out {
			remote(w)
		}
	}
	// Edges are copied in g's vertex and adjacency order, so the
	// projection's adjacency lists are deterministic.
	for _, v := range g.order {
		from := p.Get(v.ID())
		if from == nil {
			continue
		}
		for _, w := range v.out {
			if to := p.Get(w.ID()); to != nil {
				_ = p.AddEdge(from, to)
			}
		}
	}
	return p
}

// Validate checks structural invariants and returns the first violation:
//   - every edge joins two vertices of this graph, is legal per Table 1,
//     and appears in its endpoints' adjacency lists;
//   - at most one open exist vertex per (host, tuple), and at most one open
//     believe vertex per (host, origin, tuple);
//   - the maintained lookup indices (open exist, open believe, open believe
//     by host and tuple, instants) equal indices rebuilt from Vertices().
func (g *Graph) Validate() error {
	adjacent := 0
	for _, v := range g.order {
		if g.vertices[v.ID()] != v {
			return fmt.Errorf("provgraph: vertex %s is not indexed under its ID", v)
		}
		for _, w := range v.out {
			if g.vertices[w.ID()] != w {
				return fmt.Errorf("provgraph: edge %s -> %s references a vertex outside the graph", v, w)
			}
			if !LegalEdge(v.Type, w.Type) {
				return fmt.Errorf("provgraph: illegal edge %s -> %s", v, w)
			}
			if !g.HasEdge(v, w) {
				return fmt.Errorf("provgraph: adjacency edge %s -> %s missing from the edge set", v, w)
			}
			adjacent++
		}
	}
	if adjacent != len(g.edges) {
		return fmt.Errorf("provgraph: %d edges in the edge set, %d in adjacency lists", len(g.edges), adjacent)
	}

	rebuilt := New()
	for _, v := range g.order {
		if v.Type == VExist && v.Open() && rebuilt.OpenExist(v.Host, v.Tuple) != nil ||
			v.Type == VBelieve && v.Open() && rebuilt.OpenBelieve(v.Host, v.Remote, v.Tuple) != nil {
			return fmt.Errorf("provgraph: several open %s vertices for %s|%s|%s", v.Type, v.Host, v.Remote, v.Tuple.Key())
		}
		rebuilt.Add(v)
	}
	if !maps.Equal(g.openExist, rebuilt.openExist) {
		return fmt.Errorf("provgraph: open exist index differs from the vertices (%d indexed, %d open)",
			len(g.openExist), len(rebuilt.openExist))
	}
	if !maps.Equal(g.openBelieve, rebuilt.openBelieve) {
		return fmt.Errorf("provgraph: open believe index differs from the vertices (%d indexed, %d open)",
			len(g.openBelieve), len(rebuilt.openBelieve))
	}
	if !maps.EqualFunc(g.believeAny, rebuilt.believeAny, slices.Equal[[]*Vertex]) {
		return fmt.Errorf("provgraph: believe-by-host|tuple index differs from the vertices")
	}
	if !maps.EqualFunc(g.instant, rebuilt.instant, slices.Equal[[]*Vertex]) {
		return fmt.Errorf("provgraph: instant index differs from the vertices")
	}
	return nil
}
