package cuckoograph_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"cuckoograph"
)

func TestPublicGraphAPI(t *testing.T) {
	g := cuckoograph.New()
	if !g.InsertEdge(1, 2) || g.InsertEdge(1, 2) {
		t.Fatal("InsertEdge newness wrong")
	}
	if !g.HasEdge(1, 2) || g.HasEdge(2, 1) {
		t.Fatal("HasEdge wrong")
	}
	if got := g.Successors(1); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Successors = %v", got)
	}
	if g.Degree(1) != 1 || g.Degree(9) != 0 {
		t.Fatal("Degree wrong")
	}
	if g.NumNodes() != 1 || g.NumEdges() != 1 {
		t.Fatal("counts wrong")
	}
	if g.MemoryUsage() == 0 {
		t.Fatal("MemoryUsage zero")
	}
	if st := g.Stats(); st.Edges != 1 {
		t.Fatalf("Stats = %+v", st)
	}
	nodes := 0
	g.ForEachNode(func(uint64) bool { nodes++; return true })
	if nodes != 1 {
		t.Fatal("ForEachNode wrong")
	}
	if !g.DeleteEdge(1, 2) || g.DeleteEdge(1, 2) {
		t.Fatal("DeleteEdge wrong")
	}
}

func TestPublicOptions(t *testing.T) {
	g := cuckoograph.NewWithOptions(cuckoograph.Options{
		CellsPerBucket: 4,
		LargeSlots:     2,
		MaxKicks:       50,
		ExpandAt:       0.8,
		ContractAt:     0.4,
		InitialLength:  4,
		SCHTLength:     4,
		Seed:           7,
	})
	for i := uint64(0); i < 5000; i++ {
		g.InsertEdge(i%100, i)
	}
	for i := uint64(0); i < 5000; i++ {
		if !g.HasEdge(i%100, i) {
			t.Fatalf("edge %d lost under custom options", i)
		}
	}
}

func TestPublicWeightedAPI(t *testing.T) {
	w := cuckoograph.NewWeighted()
	w.InsertEdge(1, 2)
	w.Add(1, 2, 4)
	if got, ok := w.Weight(1, 2); !ok || got != 5 {
		t.Fatalf("Weight = %d,%v", got, ok)
	}
	total := uint64(0)
	w.ForEachSuccessor(1, func(_, weight uint64) bool { total += weight; return true })
	if total != 5 {
		t.Fatalf("weight sum = %d", total)
	}
	if !w.DeleteEdge(1, 2) {
		t.Fatal("DeleteEdge failed")
	}
	if got, _ := w.Weight(1, 2); got != 4 {
		t.Fatalf("weight after delete = %d", got)
	}
	if !w.DeleteAll(1, 2) || w.HasEdge(1, 2) {
		t.Fatal("DeleteAll wrong")
	}
	if w.NumEdges() != 0 || w.NumNodes() != 0 {
		t.Fatal("counts wrong after removal")
	}
	_ = w.MemoryUsage()
	_ = w.Stats()
	w.ForEachNode(func(uint64) bool { return true })
}

func TestPublicMultiAPI(t *testing.T) {
	m := cuckoograph.NewMulti()
	m.InsertEdge(1, 2, 10)
	m.InsertEdge(1, 2, 11)
	if !m.HasEdge(1, 2) {
		t.Fatal("HasEdge false")
	}
	it := m.Edges(1, 2)
	if it.Len() != 2 {
		t.Fatalf("iterator len %d", it.Len())
	}
	if m.NumEdges() != 2 || m.NumPairs() != 1 {
		t.Fatal("counts wrong")
	}
	found := 0
	m.ForEachSuccessor(1, func(v uint64, parallel int) bool {
		if v == 2 && parallel == 2 {
			found++
		}
		return true
	})
	if found != 1 {
		t.Fatal("ForEachSuccessor wrong")
	}
	if !m.DeleteEdge(1, 2, 10) || m.DeleteEdge(1, 2, 10) {
		t.Fatal("DeleteEdge wrong")
	}
	_ = m.MemoryUsage()
}

// TestPublicMethodSets pins the exported surface of the three variants.
// They are the engine's own types, so an exported method added to
// internal/core becomes public API; this list makes that visible.
func TestPublicMethodSets(t *testing.T) {
	for _, c := range []struct {
		typ  any
		want []string
	}{
		{(*cuckoograph.Graph)(nil), []string{"AppendSuccessors", "ApplyBatch", "ApplyBatchFunc", "Degree",
			"DeleteEdge", "ForEachNode", "ForEachSuccessor", "HasEdge", "InsertEdge",
			"MemoryUsage", "NumEdges", "NumNodes", "Save", "Stats", "Successors"}},
		{(*cuckoograph.Weighted)(nil), []string{"Add", "ApplyBatch", "Degree", "DeleteAll", "DeleteEdge",
			"ForEachNode", "ForEachSuccessor", "HasEdge", "InsertEdge", "MemoryUsage", "NumEdges",
			"NumNodes", "Save", "Stats", "Weight"}},
		{(*cuckoograph.Multi)(nil), []string{"DeleteEdge", "Edges", "ForEachSuccessor", "HasEdge",
			"InsertEdge", "MemoryUsage", "NumEdges", "NumPairs"}},
	} {
		typ := reflect.TypeOf(c.typ)
		var got []string
		for i := range typ.NumMethod() {
			got = append(got, typ.Method(i).Name)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%v methods = %q, want %q", typ, got, c.want)
		}
	}
}

func ExampleGraph() {
	g := cuckoograph.New()
	g.InsertEdge(1, 2)
	g.InsertEdge(1, 3)
	fmt.Println(g.HasEdge(1, 2), g.Degree(1))
	// Output: true 2
}

func ExampleWeighted() {
	w := cuckoograph.NewWeighted()
	w.InsertEdge(7, 8)
	w.InsertEdge(7, 8)
	weight, _ := w.Weight(7, 8)
	fmt.Println(weight)
	// Output: 2
}
