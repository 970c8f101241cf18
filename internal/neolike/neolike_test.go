package neolike

import (
	"slices"
	"testing"
)

func TestPropertyGraphBasics(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		db := New()
		if indexed {
			db = WithIndex()
		}
		db.CreateNode(1, "Person")
		db.CreateNode(2, "Person")
		r1 := db.CreateRelationship(1, 2, "KNOWS")
		r2 := db.CreateRelationship(1, 2, "LIKES")
		r3 := db.CreateRelationship(2, 1, "KNOWS")

		if len(db.nodes) != 2 || len(db.rels) != 3 {
			t.Fatalf("indexed=%v: nodes %d rels %d", indexed, len(db.nodes), len(db.rels))
		}
		if l := db.nodes[1].label; l != "Person" {
			t.Fatalf("label = %q", l)
		}
		rels := db.Relationships(1, 2)
		if len(rels) != 2 {
			t.Fatalf("indexed=%v: rels(1,2) = %d, want 2", indexed, len(rels))
		}
		for _, rel := range rels {
			if rel.From != 1 || rel.To != 2 || (rel.ID == r1) != (rel.Type == "KNOWS") {
				t.Fatalf("indexed=%v: rel %+v", indexed, *rel)
			}
		}
		if back := db.Relationships(2, 1); len(back) != 1 || back[0].ID != r3 {
			t.Fatalf("indexed=%v: rels(2,1) = %v", indexed, back)
		}
		if len(db.Relationships(2, 9)) != 0 || len(db.Relationships(9, 1)) != 0 {
			t.Fatalf("indexed=%v: relationship to a missing node", indexed)
		}
		// Neo4j keeps each edge in both endpoints' lists.
		if len(db.nodes[1].out) != 2 || len(db.nodes[2].in) != 2 || db.nodes[2].in[1].ID != r2 {
			t.Fatalf("indexed=%v: adjacency lists wrong", indexed)
		}
	}
}

// TestIndexedMatchesPure checks both engines answer identically over a
// random multi-edge workload — the index is a pure accelerator.
func TestIndexedMatchesPure(t *testing.T) {
	pure, idx := New(), WithIndex()
	x := uint64(2463534242)
	next := func() uint64 { x ^= x << 13; x ^= x >> 17; x ^= x << 5; return x }
	type key struct{ u, v uint64 }
	ids := map[key][]uint64{}
	for i := 0; i < 3000; i++ {
		u, v := next()%50, next()%50
		a := pure.CreateRelationship(u, v, "E")
		b := idx.CreateRelationship(u, v, "E")
		if a != b {
			t.Fatalf("id divergence %d vs %d", a, b)
		}
		ids[key{u, v}] = append(ids[key{u, v}], a)
	}
	idSet := func(rels []*Relationship) []uint64 {
		out := make([]uint64, len(rels))
		for i, rel := range rels {
			out[i] = rel.ID
		}
		slices.Sort(out)
		return out
	}
	for k, want := range ids {
		p := idSet(pure.Relationships(k.u, k.v))
		q := idSet(idx.Relationships(k.u, k.v))
		if !slices.Equal(p, want) || !slices.Equal(q, want) {
			t.Fatalf("pair %v: pure %v idx %v want %v", k, p, q, want)
		}
	}
}
