package provgraph

import (
	"math/rand"
	"testing"

	"repro/internal/types"
)

// bruteOpenBelieveAny is OpenBelieveAny by a scan of every vertex.
func bruteOpenBelieveAny(g *Graph, host types.NodeID, tup types.Tuple) *Vertex {
	var best *Vertex
	for _, v := range g.Vertices() {
		if v.Type == VBelieve && v.Open() && v.Host == host && v.Tuple.Key() == tup.Key() &&
			(best == nil || v.Remote < best.Remote) {
			best = v
		}
	}
	return best
}

// bruteOpenExist is OpenExist by a scan of every vertex.
func bruteOpenExist(g *Graph, host types.NodeID, tup types.Tuple) *Vertex {
	for _, v := range g.Vertices() {
		if v.Type == VExist && v.Open() && v.Host == host && v.Tuple.Key() == tup.Key() {
			return v
		}
	}
	return nil
}

// TestIndicesMatchBruteForce interleaves seeded random Add, CloseInterval
// and AddEdge calls, keeping the GCA's invariant of at most one open
// interval per key, and checks the indexed lookups against scans of the
// vertex list after every step.
func TestIndicesMatchBruteForce(t *testing.T) {
	hosts := []types.NodeID{"a", "b", "c"}
	origins := []types.NodeID{"a", "b", "c", "d", "e"}
	var tuples []types.Tuple
	for _, h := range hosts {
		for k := int64(1); k <= 3; k++ {
			tuples = append(tuples, types.MakeTuple("x", types.N(h), types.I(k)))
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		var open []*Vertex
		for step := 0; step < 600; step++ {
			host := hosts[rng.Intn(len(hosts))]
			tup := tuples[rng.Intn(len(tuples))]
			at := types.Time(rng.Intn(30))
			switch r := rng.Intn(10); {
			case r < 3: // an interval vertex, open unless its key already is
				v := &Vertex{Type: VExist, Host: host, Tuple: tup, T1: at, T2: Forever, Color: Black}
				if rng.Intn(2) == 0 {
					v.Type, v.Remote = VBelieve, origins[rng.Intn(len(origins))]
				}
				if (v.Type == VExist && g.OpenExist(host, tup) != nil) ||
					(v.Type == VBelieve && g.OpenBelieve(host, v.Remote, tup) != nil) {
					v.T2 = at + 1
				}
				if w := g.Add(v); w == v && v.Open() {
					open = append(open, v)
				}
			case r < 6: // an instant vertex
				typ := []VertexType{VAppear, VDisappear, VBelieveAppear, VBelieveDisappear}[rng.Intn(4)]
				g.Add(&Vertex{Type: typ, Host: host, Remote: origins[rng.Intn(len(origins))], Tuple: tup, T1: at})
			case r < 8: // close an open interval
				if len(open) > 0 {
					i := rng.Intn(len(open))
					g.CloseInterval(open[i], open[i].T1+at)
					open = append(open[:i], open[i+1:]...)
				}
			default: // a legal edge between two existing vertices
				vs := g.Vertices()
				if len(vs) > 1 {
					from, to := vs[rng.Intn(len(vs))], vs[rng.Intn(len(vs))]
					if LegalEdge(from.Type, to.Type) {
						if err := g.AddEdge(from, to); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			for _, h := range hosts {
				for _, tp := range tuples {
					if got, want := g.OpenBelieveAny(h, tp), bruteOpenBelieveAny(g, h, tp); got != want {
						t.Fatalf("seed %d step %d: OpenBelieveAny(%s, %s) = %v, scan gives %v", seed, step, h, tp, got, want)
					}
					if got, want := g.OpenExist(h, tp), bruteOpenExist(g, h, tp); got != want {
						t.Fatalf("seed %d step %d: OpenExist(%s, %s) = %v, scan gives %v", seed, step, h, tp, got, want)
					}
				}
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

// TestValidateCatchesStaleIndices corrupts each maintained index in turn
// and checks that Validate notices.
func TestValidateCatchesStaleIndices(t *testing.T) {
	tup := types.MakeTuple("x", types.N("a"), types.I(1))
	fresh := func() (*Graph, *Vertex, *Vertex, *Vertex) {
		g := New()
		e := g.Add(&Vertex{Type: VExist, Host: "a", Tuple: tup, T1: 1, T2: Forever})
		b := g.Add(&Vertex{Type: VBelieve, Host: "a", Remote: "b", Tuple: tup, T1: 1, T2: Forever})
		ap := g.Add(&Vertex{Type: VAppear, Host: "a", Tuple: tup, T1: 1})
		if err := g.AddEdge(ap, e); err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("fresh graph invalid: %v", err)
		}
		return g, e, b, ap
	}
	corruptions := map[string]func(g *Graph, e, b, ap *Vertex){
		"exist closed behind the index":   func(g *Graph, e, b, ap *Vertex) { e.T2 = 5 },
		"open exist dropped from index":   func(g *Graph, e, b, ap *Vertex) { delete(g.openExist, hostTupleKey("a", tup)) },
		"believe closed behind the index": func(g *Graph, e, b, ap *Vertex) { b.T2 = 5 },
		"believe-any entry dropped":       func(g *Graph, e, b, ap *Vertex) { delete(g.believeAny, hostTupleKey("a", tup)) },
		"instant entry dropped":           func(g *Graph, e, b, ap *Vertex) { g.instant = map[instantAt][]*Vertex{} },
		"edge missing from adjacency":     func(g *Graph, e, b, ap *Vertex) { ap.out = nil },
		"edge to a foreign vertex": func(g *Graph, e, b, ap *Vertex) {
			foreign := &Vertex{Type: VExist, Host: "z", Tuple: tup, T1: 1, T2: Forever}
			_ = g.AddEdge(ap, foreign)
		},
	}
	for name, corrupt := range corruptions {
		g, e, b, ap := fresh()
		corrupt(g, e, b, ap)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate passed", name)
		}
	}
}
