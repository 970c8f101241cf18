// Package neolike is a miniature Neo4j-style property-graph engine: it
// stores nodes with labels, and relationships (multi-edges with ids and
// types) in per-node adjacency lists. Pure-engine edge queries
// traverse the source node's adjacency list and compare edges one by
// one — exactly the inefficiency §V-G describes. WithIndex attaches a
// CuckooGraph Multi as an edge index so queries obtain an O(1) iterator
// over the parallel edges of ⟨u,v⟩ instead of scanning the list.
package neolike

import "cuckoograph/internal/core"

// Relationship is one edge with identity and a type.
type Relationship struct {
	ID   uint64
	From uint64
	To   uint64
	Type string
}

// node is the per-node record with its adjacency list (Neo4j keeps the
// edge in the lists of both endpoints).
type node struct {
	label string
	out   []*Relationship
	in    []*Relationship
}

// DB is the property-graph engine.
type DB struct {
	nodes  map[uint64]*node
	rels   map[uint64]*Relationship
	nextID uint64

	index *core.Multi // nil without the CuckooGraph edge index
}

// New returns an empty DB without the CuckooGraph index (pure engine).
func New() *DB {
	return &DB{nodes: make(map[uint64]*node), rels: make(map[uint64]*Relationship)}
}

// WithIndex returns a DB accelerated by a CuckooGraph Multi edge index.
func WithIndex() *DB {
	db := New()
	db.index = core.NewMulti(core.Config{})
	return db
}

// CreateNode upserts a node with the given label.
func (db *DB) CreateNode(id uint64, label string) {
	if n := db.nodes[id]; n != nil {
		n.label = label
		return
	}
	db.nodes[id] = &node{label: label}
}

// CreateRelationship adds an edge from → to and returns its id. Nodes
// are created implicitly, as in Cypher's MERGE.
func (db *DB) CreateRelationship(from, to uint64, relType string) uint64 {
	if db.nodes[from] == nil {
		db.CreateNode(from, "")
	}
	if db.nodes[to] == nil {
		db.CreateNode(to, "")
	}
	db.nextID++
	rel := &Relationship{ID: db.nextID, From: from, To: to, Type: relType}
	db.rels[rel.ID] = rel
	db.nodes[from].out = append(db.nodes[from].out, rel)
	db.nodes[to].in = append(db.nodes[to].in, rel)
	if db.index != nil {
		db.index.InsertEdge(from, to, rel.ID)
	}
	return rel.ID
}

// Relationships returns every edge from → to. Without the index this
// traverses from's adjacency list comparing one by one (§V-G: "we have
// to find the adjacency list of u, and then traverse the list and
// compare the edges one by one"); with the index it resolves the
// ⟨u,v⟩ slot in O(1) and follows the per-pair edge list.
func (db *DB) Relationships(from, to uint64) []*Relationship {
	if db.index != nil {
		it := db.index.Edges(from, to)
		out := make([]*Relationship, 0, it.Len())
		for id, ok := it.Next(); ok; id, ok = it.Next() {
			if rel := db.rels[id]; rel != nil {
				out = append(out, rel)
			}
		}
		return out
	}
	n := db.nodes[from]
	if n == nil {
		return nil
	}
	var out []*Relationship
	for _, rel := range n.out {
		if rel.To == to {
			out = append(out, rel)
		}
	}
	return out
}
