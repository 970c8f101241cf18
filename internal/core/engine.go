package core

import (
	"slices"

	"cuckoograph/internal/cuckoo"
	"cuckoograph/internal/hashutil"
)

// slot is one neighbour record: the end node v plus the variant's
// per-edge payload (nothing for the basic version, a weight for the
// extended version, an edge-id list for the multi-edge version). The
// payload comes first: Go pads a struct whose LAST field is zero-sized,
// so with v first a basic small slot was 16 bytes, not the paper's 8
// (layout_test.go pins the sizes).
type slot[W any] struct {
	w W
	v uint64
}

// A cell's Part 2 (§III-A1) is the payload row of its L-CHT cell, held
// there by value: element 0 is the head word, elements 1…inlineCap the
// small slots. While the node is inline the head's v counts the small
// slots in use — 1…inlineCap, filled from the front, the unused ones
// zero. Once the node's degree passes inlineCap the small slots are
// emptied and the head's v becomes chainFlag | the number of the node's
// S-CHT chain in engine.chains: the paper's large slot, a number where
// the paper draws a pointer, so that the L-CHT of the basic and weighted
// variants holds nothing for the collector to follow. The head's w is
// never used.

// chainFlag marks a head word that carries a chain number.
const chainFlag = 1 << 63

// sdlEntry is one unit of the S-DL: a complete ⟨u,v⟩ pair (§III-A2)
// plus the variant payload.
type sdlEntry[W any] struct {
	s slot[W]
	u uint64
}

// ldlEntry is one unit of the L-DL. It mirrors a whole L-CHT cell — u
// together with a copy of its row — so that a kicked-out u keeps its
// chain number, and with it its S-CHT chain, without any copying of the
// chain (§III-A2).
type ldlEntry[W any] struct {
	u   uint64
	row []slot[W]
}

// engine is the variant-independent CuckooGraph machinery. The exported
// Graph, WeightedGraph and MultiGraph wrap it with their edge semantics.
type engine[W any] struct {
	cfg       Config
	inlineCap int // 2R for the basic version, R for weighted/multi

	lcht *cuckoo.Chain[slot[W]] // payload width 1 + inlineCap
	scht *cuckoo.Family         // the shape and counters of every S-CHT chain
	ldl  []ldlEntry[W]
	sdl  []sdlEntry[W]

	// chains is the registry the head words of chained cells index: every
	// live S-CHT chain under its number, nil under a number that is free.
	// free lists the free numbers; register keeps its capacity at
	// len(chains), so handing a number back never allocates. (32 bits do:
	// a chain's header and first table alone are some 200 bytes.)
	chains []*cuckoo.Chain[W]
	free   []uint32

	// newRow is the row a new node's cell is built in, and the buffer a
	// homeless cell is re-inserted from: all zero between uses.
	newRow []slot[W]

	// parked counts, per u, the S-DL entries that carry it, so that
	// whether a node has anything parked — and how much — is one lookup
	// instead of a walk over every other node's entries. Only park and
	// unpark touch it; it stays nil until something is parked.
	parked map[uint64]int

	nodes uint64
	edges uint64

	seedTick uint64
}

func newEngine[W any](cfg Config, inlineCap int) *engine[W] {
	cfg = cfg.Defaults()
	e := &engine[W]{cfg: cfg, inlineCap: inlineCap, newRow: make([]slot[W], 1+inlineCap)}
	e.lcht = cuckoo.NewRowChain[slot[W]](cfg.LCHTBase, len(e.newRow), cfg.chainConfig())
	e.scht = cuckoo.NewFamily(cfg.SCHTBase, 1, cfg.chainConfig())
	return e
}

// newChainSeed derives a distinct deterministic seed per S-CHT chain.
func (e *engine[W]) newChainSeed() uint64 {
	e.seedTick++
	return e.cfg.Seed*0x9E3779B97F4A7C15 + e.seedTick*0xBF58476D1CE4E5B9
}

// findPart2 locates u's cell in the L-CHT chain or the L-DL (query
// Step 1 of §III-A3) and returns its Part 2 row in place, nil for an
// unknown u; the row is valid until the L-CHT or the L-DL next changes
// shape. hu is u's Key64: every caller computes it once per op and
// hands the same value to whatever else needs it — a new cell's
// placement, a node's removal.
func (e *engine[W]) findPart2(hu, u uint64) []slot[W] {
	if row := e.lcht.RowHashed(hu, u); row != nil {
		return row
	}
	for i := range e.ldl {
		if e.ldl[i].u == u {
			return e.ldl[i].row
		}
	}
	return nil
}

// chainOf returns the S-CHT chain the head word of row names, nil while
// the cell is inline.
func (e *engine[W]) chainOf(row []slot[W]) *cuckoo.Chain[W] {
	if head := row[0].v; head&chainFlag != 0 {
		return e.chains[head&^chainFlag]
	}
	return nil
}

// register files a new chain in the registry and returns its number.
func (e *engine[W]) register(c *cuckoo.Chain[W]) uint64 {
	if n := len(e.free); n != 0 {
		no := e.free[n-1]
		e.free = e.free[:n-1]
		e.chains[no] = c
		return uint64(no)
	}
	e.chains = append(e.chains, c)
	e.free = slices.Grow(e.free, len(e.chains))
	return uint64(len(e.chains) - 1)
}

// find is the one probe an op makes for ⟨u,v⟩ (query Step 2 of
// §III-A3), given u's row (nil for an unknown u). It returns a mutable
// pointer to the edge's payload wherever the edge lives, nil when it is
// absent, and — because the mutation that follows must not probe or
// hash again — where that is and v's hash:
//
//   - at is the row index of the small slot of an inline u, the chain
//     cell (a cuckoo.Pos) of a chained u, or ^i for entry i of the S-DL;
//   - hv is Key64(v), computed only for a chained u; an absent edge is
//     placed with it.
func (e *engine[W]) find(row []slot[W], u, v uint64) (w *W, at int64, hv uint64) {
	if row != nil {
		if c := e.chainOf(row); c != nil {
			hv = hashutil.Key64(v)
			if pos := c.FindHashed(hv, v); pos.Found() {
				return c.At(pos), int64(pos), hv
			}
		} else {
			small := row[1 : 1+row[0].v]
			for i := range small {
				if small[i].v == v {
					return &small[i].w, int64(i + 1), 0
				}
			}
		}
	}
	if e.numParked(u) != 0 {
		for i := range e.sdl {
			if e.sdl[i].u == u && e.sdl[i].s.v == v {
				return &e.sdl[i].s.w, ^int64(i), hv
			}
		}
	}
	return nil, 0, hv
}

// refSlot returns a mutable pointer to ⟨u,v⟩'s payload, or nil.
func (e *engine[W]) refSlot(u, v uint64) *W {
	hu := hashutil.Key64(u)
	w, _, _ := e.find(e.findPart2(hu, u), u, v)
	return w
}

func (e *engine[W]) hasEdge(u, v uint64) bool { return e.refSlot(u, v) != nil }

// numParked returns how many S-DL entries carry u.
func (e *engine[W]) numParked(u uint64) int {
	if len(e.parked) == 0 {
		return 0
	}
	return e.parked[u]
}

// park appends ⟨u,s⟩ to the S-DL.
func (e *engine[W]) park(u uint64, s slot[W]) {
	if e.parked == nil {
		e.parked = make(map[uint64]int)
	}
	e.parked[u]++
	e.sdl = append(e.sdl, sdlEntry[W]{u: u, s: s})
}

// parkAll parks a chain's homeless entries under u.
func (e *engine[W]) parkAll(u uint64, leftovers []cuckoo.Entry[W]) {
	for _, lo := range leftovers {
		e.park(u, slot[W]{v: lo.Key, w: lo.Val})
	}
}

// unpark takes u's entries out of the S-DL, in order and for as long as
// take accepts them, keeping the order of the rest. It walks the list
// only when u has something parked.
func (e *engine[W]) unpark(u uint64, take func(s slot[W]) bool) {
	n := e.numParked(u)
	if n == 0 {
		return
	}
	kept := e.sdl[:0]
	for _, entry := range e.sdl {
		if entry.u == u && take(entry.s) {
			n--
		} else {
			kept = append(kept, entry)
		}
	}
	clear(e.sdl[len(kept):])
	e.sdl = kept
	e.setParked(u, n)
}

// setParked records that n S-DL entries carry u.
func (e *engine[W]) setParked(u uint64, n int) {
	if n == 0 {
		delete(e.parked, u)
	} else {
		e.parked[u] = n
	}
}

// insertAt stores a verified-absent edge, reusing u's hash, its row
// and v's hash from the find that reported the edge absent. It always
// succeeds: failures cascade into the denylists, and full denylists
// force transformations.
func (e *engine[W]) insertAt(hu uint64, row []slot[W], u, hv uint64, s slot[W]) {
	e.edges++
	if row == nil {
		// First neighbour of a brand-new u (insertion Step 2, case ①/②).
		e.nodes++
		e.newRow[0].v, e.newRow[1] = 1, s
		e.insertCell(hu, u)
		return
	}
	if c := e.chainOf(row); c != nil {
		e.chainInsert(u, c, hv, s)
		return
	}
	n := int(row[0].v)
	if n < e.inlineCap {
		row[1+n] = s
		row[0].v++
		return
	}
	// 2R small slots full: merge them into R large slots, enable the
	// 1st S-CHT and transfer every v into it (§III-A1 step ②).
	c := cuckoo.NewChainIn[W](e.scht, e.newChainSeed())
	row[0].v = chainFlag | e.register(c)
	for _, old := range row[1:] {
		e.chainInsert(u, c, hashutil.Key64(old.v), old)
	}
	clear(row[1:])
	e.chainInsert(u, c, hashutil.Key64(s.v), s)
}

// insertCell places the cell ⟨u, newRow⟩ into the L-CHT, spilling to
// the L-DL on failure and forcing growth when the L-DL is full.
func (e *engine[W]) insertCell(hu, u uint64) {
	width := len(e.newRow)
	leftovers, grew := e.lcht.InsertRowHashed(hu, u, e.newRow)
	var work []cuckoo.Entry[slot[W]]
	for {
		if grew {
			e.drainLDL()
		}
		if len(leftovers) != 0 {
			if !e.cfg.DisableDenylist && len(e.ldl)+len(leftovers)/width <= e.cfg.LDLCap {
				e.spill(leftovers)
			} else {
				// Denylist disabled or full: force an expansion and
				// retry, the paper's fallback behaviour.
				work = append(work, e.lcht.Grow()...)
				e.drainLDL()
				work = append(work, leftovers...)
			}
		}
		if len(work) == 0 {
			clear(e.newRow)
			return
		}
		cell := work[len(work)-width:]
		work = work[:len(work)-width]
		for i := range e.newRow {
			e.newRow[i] = cell[i].Val
		}
		leftovers, grew = e.lcht.InsertRow(cell[0].Key, e.newRow)
	}
}

// spill moves the cells the L-CHT left homeless — one entry per row
// element, as a chain of rows reports them — into the L-DL.
func (e *engine[W]) spill(leftovers []cuckoo.Entry[slot[W]]) {
	for width := len(e.newRow); len(leftovers) != 0; leftovers = leftovers[width:] {
		row := make([]slot[W], width)
		for i := range row {
			row[i] = leftovers[i].Val
		}
		e.ldl = append(e.ldl, ldlEntry[W]{u: leftovers[0].Key, row: row})
	}
}

// drainLDL re-tries every L-DL resident after an L-CHT expansion.
func (e *engine[W]) drainLDL() {
	if len(e.ldl) == 0 {
		return
	}
	// Copy: re-insertion failures append to e.ldl, which must not alias
	// the entries still being drained.
	pending := append([]ldlEntry[W](nil), e.ldl...)
	e.ldl = e.ldl[:0]
	for _, c := range pending {
		leftovers, grew := e.lcht.InsertRow(c.u, c.row)
		if grew {
			// A nested growth re-queues what is already drained.
			e.drainLDL()
		}
		e.spill(leftovers)
	}
}

// chainInsert inserts one slot (hv is Key64 of its v) into u's S-CHT
// chain, handling denylist spill and drain-on-expansion.
func (e *engine[W]) chainInsert(u uint64, c *cuckoo.Chain[W], hv uint64, s slot[W]) {
	leftovers, grew := c.InsertHashed(hv, s.v, s.w)
	var work []cuckoo.Entry[W]
	for {
		if grew {
			e.drainSDLInto(u, c)
		}
		if len(leftovers) != 0 {
			if !e.cfg.DisableDenylist && len(e.sdl)+len(leftovers) <= e.cfg.SDLCap {
				e.parkAll(u, leftovers)
			} else {
				work = append(work, c.Grow()...)
				e.drainSDLInto(u, c)
				work = append(work, leftovers...)
			}
		}
		if len(work) == 0 {
			return
		}
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		leftovers, grew = c.Insert(cur.Key, cur.Val)
	}
}

// drainSDLInto moves S-DL entries whose u matches the expanding chain
// into it (§III-A2 step 3: "we insert those v′′ in S-DL whose u′′
// exactly match ... into the new S-CHT").
func (e *engine[W]) drainSDLInto(u uint64, c *cuckoo.Chain[W]) {
	var moved []slot[W]
	e.unpark(u, func(s slot[W]) bool {
		moved = append(moved, s)
		return true
	})
	for _, s := range moved {
		leftovers, _ := c.Insert(s.v, s.w)
		e.parkAll(u, leftovers)
	}
}

// deleteAt removes the edge of u that find located at at, clearing the
// very slot, cell or entry the probe found. Reverse transformations may
// contract the chain or collapse it back to inline slots; an empty cell
// removes u entirely.
func (e *engine[W]) deleteAt(hu uint64, row []slot[W], u uint64, at int64) {
	e.edges--
	if at < 0 {
		e.sdl = slices.Delete(e.sdl, int(^at), int(^at)+1)
		e.setParked(u, e.parked[u]-1)
		return
	}
	if c := e.chainOf(row); c != nil {
		e.parkAll(u, c.DeleteAt(cuckoo.Pos(at)))
		e.maybeCollapse(hu, u, row, c)
		return
	}
	last := row[0].v
	row[at] = row[last]
	row[last] = slot[W]{}
	row[0].v = last - 1
	e.settleInline(hu, u, row)
}

// maybeCollapse applies the final step of reverse transformation: when
// the population of u's chain c fits back into the inline small slots,
// the chain is dismantled, its number freed, and the cell returns to
// inline form. The entries move straight from the chain's cells into the
// row, so a collapse allocates nothing.
func (e *engine[W]) maybeCollapse(hu, u uint64, row []slot[W], c *cuckoo.Chain[W]) {
	if c.Size() > e.inlineCap {
		return
	}
	no := row[0].v &^ chainFlag
	e.chains[no] = nil
	e.free = append(e.free, uint32(no))
	n := 0
	c.ForEachRef(func(v uint64, w *W) bool {
		n++
		row[n] = slot[W]{v: v, w: *w}
		return true
	})
	row[0].v = uint64(n)
	e.settleInline(hu, u, row)
}

// settleInline finishes a removal from u's inline cell: parked ⟨u,·⟩
// pairs move back into the freed slots, so no edge is stranded in the
// S-DL when its cell has room, and a cell left empty removes u from the
// L-CHT or L-DL.
func (e *engine[W]) settleInline(hu, u uint64, row []slot[W]) {
	e.unpark(u, func(s slot[W]) bool {
		if int(row[0].v) == e.inlineCap {
			return false
		}
		row[0].v++
		row[row[0].v] = s
		return true
	})
	if row[0].v != 0 {
		return
	}
	for i := range e.ldl {
		if e.ldl[i].u == u {
			e.ldl = slices.Delete(e.ldl, i, i+1)
			e.nodes--
			return
		}
	}
	// The one place an op probes a structure a second time: the cell's
	// own bucket, with u's hash in hand.
	if pos := e.lcht.FindHashed(hu, u); pos.Found() {
		e.spill(e.lcht.DeleteAt(pos))
		e.nodes--
	}
}

// forEachSuccessor visits every stored neighbour of u. The chain case
// hands fn straight to ForEachRef — no per-entry payload copy, no
// adapter closure — keeping the whole iteration allocation-free.
func (e *engine[W]) forEachSuccessor(u uint64, fn func(v uint64, w *W) bool) {
	e.forEachOf(e.findPart2(hashutil.Key64(u), u), u, fn)
}

// forEachOf is forEachSuccessor given u's row (nil: u has none).
func (e *engine[W]) forEachOf(row []slot[W], u uint64, fn func(v uint64, w *W) bool) {
	if row != nil {
		if c := e.chainOf(row); c != nil {
			if !c.ForEachRef(fn) {
				return
			}
		} else {
			small := row[1 : 1+row[0].v]
			for i := range small {
				if !fn(small[i].v, &small[i].w) {
					return
				}
			}
		}
	}
	e.forEachParked(u, fn)
}

// forEachKeyOf is forEachOf for a caller that wants successors only: a
// chained u's cells are walked by key, one call of fn per successor.
func (e *engine[W]) forEachKeyOf(row []slot[W], u uint64, fn func(v uint64) bool) {
	keyOnly := func(v uint64, _ *W) bool { return fn(v) }
	if row == nil || e.chainOf(row) == nil {
		e.forEachOf(row, u, keyOnly)
	} else if e.chainOf(row).ForEachKey(fn) {
		e.forEachParked(u, keyOnly)
	}
}

// appendOf appends u's successors to dst in forEachOf's order, given
// u's row (nil: u has none), and returns the extended slice. A chained
// u's keys are copied with no call per successor.
func (e *engine[W]) appendOf(row []slot[W], u uint64, dst []uint64) []uint64 {
	if row != nil {
		if c := e.chainOf(row); c != nil {
			dst = c.AppendKeys(dst)
		} else {
			for _, s := range row[1 : 1+row[0].v] {
				dst = append(dst, s.v)
			}
		}
	}
	e.forEachParked(u, func(v uint64, _ *W) bool {
		dst = append(dst, v)
		return true
	})
	return dst
}

// forEachParked visits u's S-DL entries in list order until fn returns
// false. It stops reading the list at the last entry that carries u.
func (e *engine[W]) forEachParked(u uint64, fn func(v uint64, w *W) bool) {
	for i, n := 0, e.numParked(u); n != 0; i++ {
		if p := &e.sdl[i]; p.u == u {
			n--
			if !fn(p.s.v, &p.s.w) {
				return
			}
		}
	}
}

// degree counts u's neighbours without iterating them: inline slots,
// S-CHT chains and the S-DL all track their population per node. O(R).
func (e *engine[W]) degree(u uint64) int {
	return e.degreeOf(e.findPart2(hashutil.Key64(u), u), u)
}

// degreeOf is degree given u's row (nil: u has none).
func (e *engine[W]) degreeOf(row []slot[W], u uint64) int {
	n := e.numParked(u)
	if row != nil {
		if c := e.chainOf(row); c != nil {
			n += c.Size()
		} else {
			n += int(row[0].v)
		}
	}
	return n
}

// preImage runs a copy-on-write hook just before an op changes u, whose
// row is row. before is told u and its degree and returns nil, or a
// slice of that length for preImage to fill with u's successors as they
// stand — read from the cell the op's own probe found, not from a second
// one.
func (e *engine[W]) preImage(before func(u uint64, deg int) []uint64, row []slot[W], u uint64) {
	if dst := before(u, e.degreeOf(row, u)); len(dst) != 0 {
		e.appendOf(row, u, dst[:0])
	}
}

// forEachNode visits every stored source node u.
func (e *engine[W]) forEachNode(fn func(u uint64) bool) {
	stop := false
	e.lcht.ForEachRef(func(u uint64, _ *slot[W]) bool {
		if !fn(u) {
			stop = true
			return false
		}
		return true
	})
	if stop {
		return
	}
	for i := range e.ldl {
		if !fn(e.ldl[i].u) {
			return
		}
	}
}

// memoryUsage sums structural bytes following the paper's cell layout:
// every L-CHT cell is 8 B (Part 1) + 2R·8 B (Part 2, small slots or
// large slots) + 1 B occupancy; S-CHT cells are 8 B per v plus the
// variant payload; denylists count their entry sizes. The S-CHT chains
// are summed over the registry, which holds those of L-CHT and L-DL
// cells alike, so no cell is visited.
func (e *engine[W]) memoryUsage(slotPayloadBytes int) uint64 {
	part2Bytes := 2 * e.cfg.R * 8
	total := e.lcht.MemoryBytes(part2Bytes)
	for _, c := range e.chains {
		if c != nil {
			total += c.MemoryBytes(slotPayloadBytes)
		}
	}
	total += uint64(len(e.ldl)) * uint64(8+part2Bytes)
	total += uint64(len(e.sdl)) * uint64(16+slotPayloadBytes)
	return total
}

// Stats reports structural counters for the experiments of §IV and §V-B.
type Stats struct {
	Nodes, Edges    uint64
	LCHTTables      int
	LCHTCells       int
	LCHTLoadRate    float64
	LCHTKicks       uint64
	LCHTPlacements  uint64
	Chains          int
	SCHTTables      int // tables over all S-CHT chains
	ChainCells      int
	ChainEntries    int
	SCHTKicks       uint64
	SCHTPlacements  uint64
	LDLLen, SDLLen  int
	Transformations uint64
	// SCHTByTable breaks SCHTTables, ChainCells and ChainEntries down by
	// table position: element i sums the (i+1)-th S-CHT of every chain
	// that has one, so Entries/Cells is the load of that position.
	SCHTByTable []TableLoad
}

// TableLoad sums the S-CHTs at one position in their chains.
type TableLoad struct{ Tables, Cells, Entries int }

// Add merges o into s, as if one structure held both: counts sum,
// SCHTByTable sums position by position, and the L-CHT loading rate is
// the mean of the two weighted by their cells.
func (s *Stats) Add(o Stats) {
	if cells := s.LCHTCells + o.LCHTCells; cells > 0 {
		s.LCHTLoadRate = (s.LCHTLoadRate*float64(s.LCHTCells) + o.LCHTLoadRate*float64(o.LCHTCells)) / float64(cells)
	}
	s.Nodes += o.Nodes
	s.Edges += o.Edges
	s.LCHTTables += o.LCHTTables
	s.LCHTCells += o.LCHTCells
	s.LCHTKicks += o.LCHTKicks
	s.LCHTPlacements += o.LCHTPlacements
	s.Chains += o.Chains
	s.SCHTTables += o.SCHTTables
	s.ChainCells += o.ChainCells
	s.ChainEntries += o.ChainEntries
	s.SCHTKicks += o.SCHTKicks
	s.SCHTPlacements += o.SCHTPlacements
	s.LDLLen += o.LDLLen
	s.SDLLen += o.SDLLen
	s.Transformations += o.Transformations
	for i, p := range o.SCHTByTable {
		s.addTableLoad(i, p)
	}
}

// addTableLoad adds p to position i of SCHTByTable, which is at most
// one element short.
func (s *Stats) addTableLoad(i int, p TableLoad) {
	if i == len(s.SCHTByTable) {
		s.SCHTByTable = append(s.SCHTByTable, TableLoad{})
	}
	m := &s.SCHTByTable[i]
	m.Tables, m.Cells, m.Entries = m.Tables+p.Tables, m.Cells+p.Cells, m.Entries+p.Entries
}

func (e *engine[W]) stats() Stats {
	st := Stats{
		Nodes:           e.nodes,
		Edges:           e.edges,
		LCHTTables:      e.lcht.Tables(),
		LCHTCells:       e.lcht.Cells(),
		LCHTLoadRate:    e.lcht.OverallLoadRate(),
		LCHTKicks:       e.lcht.Kicks(),
		LCHTPlacements:  e.lcht.Placements(),
		SCHTKicks:       e.scht.Kicks(),
		SCHTPlacements:  e.scht.Placements(),
		LDLLen:          len(e.ldl),
		SDLLen:          len(e.sdl),
		Transformations: e.lcht.Transformations() + e.scht.Transformations(),
	}
	for _, c := range e.chains {
		if c == nil {
			continue
		}
		st.Chains++
		st.SCHTTables += c.Tables()
		st.ChainCells += c.Cells()
		st.ChainEntries += c.Size()
		for i := range c.Tables() {
			cells, entries := c.TableLoad(i)
			st.addTableLoad(i, TableLoad{1, cells, entries})
		}
	}
	return st
}
