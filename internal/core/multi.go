package core

import "cuckoograph/internal/hashutil"

// Multi is the multi-edge variant of CuckooGraph built for the Neo4j
// integration (§V-G): several distinct edges may share the same node
// pair ⟨u,v⟩, so the weight field of each S-CHT slot becomes a list of
// edge identifiers, and queries return an iterator over that list.
type Multi struct {
	e         *engine[[]uint64]
	edgeCount uint64 // total edges, counting parallel edges
}

// NewMulti returns an empty multi-edge CuckooGraph.
func NewMulti(cfg Config) *Multi {
	cfg = cfg.Defaults()
	return &Multi{e: newEngine[[]uint64](cfg, cfg.R)}
}

// InsertEdge records edge id between u and v. Parallel edges accumulate
// on the same ⟨u,v⟩ slot.
func (m *Multi) InsertEdge(u, v, id uint64) {
	m.edgeCount++
	hu := hashutil.Key64(u)
	row := m.e.findPart2(hu, u)
	ids, _, hv := m.e.find(row, u, v)
	if ids != nil {
		*ids = append(*ids, id)
		return
	}
	m.e.insertAt(hu, row, u, hv, slot[[]uint64]{v: v, w: []uint64{id}})
}

// HasEdge reports whether any edge connects u to v.
func (m *Multi) HasEdge(u, v uint64) bool { return m.e.hasEdge(u, v) }

// Edges returns an iterator over the edge ids stored under ⟨u,v⟩.
// Obtaining the iterator is O(1) — the property the Neo4j experiment
// measures (§V-G: "the time cost of CuckooGraph's query to obtain the
// iterator of the linked list is O(1)").
func (m *Multi) Edges(u, v uint64) *EdgeIterator {
	p := m.e.refSlot(u, v)
	if p == nil {
		return &EdgeIterator{}
	}
	return &EdgeIterator{ids: *p}
}

// DeleteEdge removes the specific edge id between u and v, reporting
// whether it was found. The node pair disappears once its list empties.
func (m *Multi) DeleteEdge(u, v, id uint64) bool {
	hu := hashutil.Key64(u)
	row := m.e.findPart2(hu, u)
	w, at, _ := m.e.find(row, u, v)
	if w == nil {
		return false
	}
	ids := *w
	for i, got := range ids {
		if got == id {
			ids[i] = ids[len(ids)-1]
			*w = ids[:len(ids)-1]
			m.edgeCount--
			if len(*w) == 0 {
				m.e.deleteAt(hu, row, u, at)
			}
			return true
		}
	}
	return false
}

// ForEachSuccessor calls fn for every distinct successor v of u with the
// number of parallel edges to it.
func (m *Multi) ForEachSuccessor(u uint64, fn func(v uint64, parallel int) bool) {
	m.e.forEachSuccessor(u, func(v uint64, p *[]uint64) bool { return fn(v, len(*p)) })
}

// NumEdges returns the total number of edges including parallel ones.
func (m *Multi) NumEdges() uint64 { return m.edgeCount }

// NumPairs returns the number of distinct connected ⟨u,v⟩ pairs.
func (m *Multi) NumPairs() uint64 { return m.e.edges }

// MemoryUsage returns structural bytes: the core structure with an
// 8-byte list-head word per slot, plus 8 bytes per stored edge id.
func (m *Multi) MemoryUsage() uint64 {
	return m.e.memoryUsage(8) + m.edgeCount*8
}

// EdgeIterator walks the edge-id list of one ⟨u,v⟩ pair.
type EdgeIterator struct {
	ids []uint64
	i   int
}

// Next returns the next edge id; ok is false when exhausted.
func (it *EdgeIterator) Next() (id uint64, ok bool) {
	if it.i >= len(it.ids) {
		return 0, false
	}
	id = it.ids[it.i]
	it.i++
	return id, true
}

// Len returns the number of edge ids remaining.
func (it *EdgeIterator) Len() int { return len(it.ids) - it.i }
