package graph

import (
	"math/rand"
	"testing"
)

func TestNewAndAdd(t *testing.T) {
	g := New(4)
	if g.N() != 4 {
		t.Fatalf("N() = %d, want 4", g.N())
	}
	id1 := g.AddEdge(0, 1, 2.5)
	id2 := g.AddArc(1, 2, 1.0)
	if id1 == id2 {
		t.Fatal("edge IDs must be distinct")
	}
	if g.NumEdgeIDs() != 2 {
		t.Fatalf("NumEdgeIDs = %d, want 2", g.NumEdgeIDs())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 2 || g.Degree(2) != 0 {
		t.Fatalf("degrees = %d,%d,%d; want 1,2,0", g.Degree(0), g.Degree(1), g.Degree(2))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestUndirectedEdgeSharesID(t *testing.T) {
	g := New(2)
	id := g.AddEdge(0, 1, 1)
	if got := g.Neighbors(0)[0].ID; got != id {
		t.Fatalf("forward arc ID = %d, want %d", got, id)
	}
	if got := g.Neighbors(1)[0].ID; got != id {
		t.Fatalf("reverse arc ID = %d, want %d", got, id)
	}
}

func TestSetWeightByID(t *testing.T) {
	g := New(3)
	id := g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 5)
	g.SetWeightByID(id, 9)
	if g.Neighbors(0)[0].Weight != 9 || g.Neighbors(1)[0].Weight != 9 {
		t.Fatal("SetWeightByID must update both arcs")
	}
	if g.Neighbors(1)[1].Weight != 5 {
		t.Fatal("SetWeightByID must not touch other edges")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	c := g.Clone()
	c.AddEdge(0, 1, 7)
	if g.Degree(0) != 1 {
		t.Fatal("mutating clone affected original")
	}
	if c.Degree(0) != 2 {
		t.Fatal("clone missing added edge")
	}
}

func TestPathHelpers(t *testing.T) {
	p := Path{1, 2, 3}
	if p.Hops() != 2 {
		t.Fatalf("Hops = %d, want 2", p.Hops())
	}
	if !p.Loopless() {
		t.Fatal("1-2-3 must be loopless")
	}
	if (Path{1, 2, 1}).Loopless() {
		t.Fatal("1-2-1 must not be loopless")
	}
	if !p.Equal(Path{1, 2, 3}) || p.Equal(Path{1, 2}) || p.Equal(Path{1, 2, 4}) {
		t.Fatal("Equal misbehaved")
	}
	if (Path{}).Hops() != 0 {
		t.Fatal("empty path hops must be 0")
	}
}

func TestPathLoopless(t *testing.T) {
	long := make(Path, 100)
	for i := range long {
		long[i] = i
	}
	longLoop := append(append(Path{}, long...), 50)
	cases := []struct {
		name string
		p    Path
		want bool
	}{
		{"empty", Path{}, true},
		{"nil", nil, true},
		{"one node", Path{4}, true},
		{"distinct", Path{3, 1, 4, 0, 5}, true},
		{"repeat at the ends", Path{2, 7, 9, 2}, false},
		{"repeat in the middle", Path{1, 5, 6, 5, 8}, false},
		{"adjacent repeat", Path{1, 1}, false},
		{"long distinct", long, true},
		{"long with a repeat", longLoop, false},
	}
	for _, c := range cases {
		if got := c.p.Loopless(); got != c.want {
			t.Errorf("%s: Loopless(%v) = %v, want %v", c.name, c.p, got, c.want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { long.Loopless() }); allocs != 0 {
		t.Fatalf("Loopless allocates %v times", allocs)
	}
}

// randomGraph builds a random connected-ish undirected graph for oracles.
func randomGraph(rng *rand.Rand, n int, extraEdges int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		g.AddEdge(u, v, 1+rng.Float64()*9)
	}
	for i := 0; i < extraEdges; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, 1+rng.Float64()*9)
		}
	}
	return g
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	g.adj[0][0].To = 5
	if err := g.Validate(); err == nil {
		t.Fatal("Validate must reject out-of-range endpoint")
	}
	h := New(2)
	h.AddEdge(0, 1, 1)
	h.adj[0][0].ID = 3
	if err := h.Validate(); err == nil {
		t.Fatal("Validate must reject out-of-range edge ID")
	}
}
