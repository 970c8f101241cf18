package core

import (
	"slices"
	"testing"

	"cuckoograph/internal/hashutil"
)

// scanNodes returns a graph holding one node of each shape a successor
// scan reads: inline with one edge, inline with all 2R small slots
// used, chained, and chained with edges parked in the S-DL between
// another node's.
func scanNodes(t *testing.T) (g *Graph, nodes map[string]uint64) {
	t.Helper()
	g = NewGraph(Config{})
	nodes = map[string]uint64{"inline": 11, "2R slots": 22, "chained": 33, "chained+parked": 44}
	g.InsertEdge(nodes["inline"], 5)
	for v := uint64(1); v <= uint64(g.e.inlineCap); v++ {
		g.InsertEdge(nodes["2R slots"], v*7)
	}
	for v := uint64(1); v <= 64; v++ {
		g.InsertEdge(nodes["chained"], v*13)
		g.InsertEdge(nodes["chained+parked"], v*17)
	}
	// Parked by hand, as the kick-war losers of a full chain would be,
	// between entries of another node.
	u := nodes["chained+parked"]
	g.e.park(99, slot[struct{}]{v: 1})
	g.e.park(u, slot[struct{}]{v: 1001})
	g.e.park(99, slot[struct{}]{v: 2})
	g.e.park(u, slot[struct{}]{v: 1002})
	g.e.park(u, slot[struct{}]{v: 1003})
	g.e.park(99, slot[struct{}]{v: 3})
	g.e.edges += 6
	if st := g.Stats(); st.Chains != 2 || st.SDLLen != 6 {
		t.Fatalf("unexpected shape: %+v", st)
	}
	return g, nodes
}

// TestSuccessorScansAgree checks that ForEachSuccessor, AppendSuccessors,
// the copy-on-write pre-image and the payload walk yield the same
// successors in the same order on every node shape, that an append
// writes nothing past its result, and that a ForEachSuccessor stopped at
// index k yields exactly the first k+1 successors.
func TestSuccessorScansAgree(t *testing.T) {
	const sentinel = 0xDEADBEEF
	g, nodes := scanNodes(t)
	for name, u := range nodes {
		t.Run(name, func(t *testing.T) {
			var want []uint64
			g.e.forEachSuccessor(u, func(v uint64, _ *struct{}) bool {
				want = append(want, v)
				return true
			})
			if len(want) != g.Degree(u) {
				t.Fatalf("payload walk yields %d successors, degree %d", len(want), g.Degree(u))
			}
			var got []uint64
			g.ForEachSuccessor(u, func(v uint64) bool { got = append(got, v); return true })
			if !slices.Equal(got, want) {
				t.Fatalf("ForEachSuccessor %v, payload walk %v", got, want)
			}
			big := make([]uint64, 3+len(want)+1)
			for i := range big {
				big[i] = sentinel
			}
			got = g.AppendSuccessors(u, big[:3])
			if !slices.Equal(got[3:], want) || &got[0] != &big[0] {
				t.Fatalf("AppendSuccessors %v, payload walk %v", got[3:], want)
			}
			if big[3+len(want)] != sentinel {
				t.Fatalf("AppendSuccessors wrote past its result: %#x", big[3+len(want)])
			}
			for i := range big {
				big[i] = sentinel
			}
			g.e.preImage(func(pu uint64, deg int) []uint64 {
				if pu != u || deg != len(want) {
					t.Fatalf("pre-image hook told node %d degree %d", pu, deg)
				}
				return big[:deg]
			}, g.e.findPart2(hashutil.Key64(u), u), u)
			if !slices.Equal(big[:len(want)], want) || big[len(want)] != sentinel {
				t.Fatalf("pre-image %v, payload walk %v", big[:len(want)+1], want)
			}
			for k := range want {
				got = got[:0]
				g.ForEachSuccessor(u, func(v uint64) bool { got = append(got, v); return len(got) <= k })
				if !slices.Equal(got, want[:k+1]) {
					t.Fatalf("ForEachSuccessor stopped at %d: %v, want %v", k, got, want[:k+1])
				}
			}
		})
	}
	if got := g.AppendSuccessors(12345, nil); got != nil {
		t.Fatalf("AppendSuccessors of an unknown node: %v, want nil", got)
	}
}
