package graphstore

import "testing"

// fake is a minimal in-memory Store for testing the package helpers.
type fake struct {
	adj map[NodeID][]NodeID
}

func (f *fake) InsertEdge(u, v NodeID) bool {
	f.adj[u] = append(f.adj[u], v)
	return true
}
func (f *fake) HasEdge(u, v NodeID) bool {
	for _, got := range f.adj[u] {
		if got == v {
			return true
		}
	}
	return false
}
func (f *fake) DeleteEdge(u, v NodeID) bool { return false }
func (f *fake) ForEachSuccessor(u NodeID, fn func(v NodeID) bool) {
	for _, v := range f.adj[u] {
		if !fn(v) {
			return
		}
	}
}
func (f *fake) ForEachNode(fn func(u NodeID) bool) {
	for u, vs := range f.adj {
		if len(vs) > 0 && !fn(u) {
			return
		}
	}
}
func (f *fake) NumEdges() uint64    { return 0 }
func (f *fake) MemoryUsage() uint64 { return 0 }

func TestSuccessorsHelper(t *testing.T) {
	s := &fake{adj: map[NodeID][]NodeID{1: {2, 3, 4}}}
	got := Successors(s, 1)
	if len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("Successors = %v", got)
	}
	if out := Successors(s, 9); out != nil {
		t.Fatalf("Successors of absent node = %v, want nil", out)
	}
}

func TestDegreeHelper(t *testing.T) {
	s := &fake{adj: map[NodeID][]NodeID{1: {2, 3}}}
	if Degree(s, 1) != 2 || Degree(s, 2) != 0 {
		t.Fatal("Degree helper wrong")
	}
}
