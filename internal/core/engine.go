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

// part2 is Part 2 of an L-CHT cell (§III-A1). It starts as inline small
// slots and transforms into a pointer to an S-CHT chain once the node's
// degree exceeds the inline capacity.
type part2[W any] struct {
	inline []slot[W]        // nil once chain is active
	chain  *cuckoo.Chain[W] // nil while inline
}

// sdlEntry is one unit of the S-DL: a complete ⟨u,v⟩ pair (§III-A2)
// plus the variant payload.
type sdlEntry[W any] struct {
	s slot[W]
	u uint64
}

// ldlEntry is one unit of the L-DL. It mirrors a whole L-CHT cell —
// u together with its Part 2 — so that a kicked-out u keeps its S-CHT
// chain without any copying (§III-A2).
type ldlEntry[W any] struct {
	u uint64
	p part2[W]
}

// engine is the variant-independent CuckooGraph machinery. The exported
// Graph, WeightedGraph and MultiGraph wrap it with their edge semantics.
type engine[W any] struct {
	cfg       Config
	inlineCap int // 2R for the basic version, R for weighted/multi

	lcht *cuckoo.Chain[part2[W]]
	ldl  []ldlEntry[W]
	sdl  []sdlEntry[W]

	// parked counts, per u, the S-DL entries that carry it, so that
	// whether a node has anything parked — and how much — is one lookup
	// instead of a walk over every other node's entries. Only park and
	// unpark touch it; it stays nil until something is parked.
	parked map[uint64]int

	nodes uint64
	edges uint64

	// Retired statistics from collapsed chains (reverse transformation
	// back to inline slots discards the chain object).
	schtKicksRetired      uint64
	schtPlacementsRetired uint64

	seedTick uint64
}

func newEngine[W any](cfg Config, inlineCap int) *engine[W] {
	cfg = cfg.Defaults()
	e := &engine[W]{cfg: cfg, inlineCap: inlineCap}
	e.lcht = cuckoo.NewChain[part2[W]](cfg.LCHTBase, cfg.chainConfig())
	return e
}

// newChainSeed derives a distinct deterministic seed per S-CHT chain.
func (e *engine[W]) newChainSeed() uint64 {
	e.seedTick++
	return e.cfg.Seed*0x9E3779B97F4A7C15 + e.seedTick*0xBF58476D1CE4E5B9
}

// findPart2 locates u's cell in the L-CHT chain or the L-DL (query
// Step 1 of §III-A3). hu is u's Key64: every caller computes it once
// per op and hands the same value to whatever else needs it — a new
// cell's placement, a node's removal.
func (e *engine[W]) findPart2(hu, u uint64) *part2[W] {
	if p := e.lcht.RefHashed(hu, u); p != nil {
		return p
	}
	for i := range e.ldl {
		if e.ldl[i].u == u {
			return &e.ldl[i].p
		}
	}
	return nil
}

// find is the one probe an op makes for ⟨u,v⟩ (query Step 2 of
// §III-A3), given u's cell p (nil for an unknown u). It returns a
// mutable pointer to the edge's payload wherever the edge lives, nil
// when it is absent, and — because the mutation that follows must not
// probe or hash again — where that is and v's hash:
//
//   - at is the inline slot of an inline u, the chain cell (a
//     cuckoo.Pos) of a chained u, or ^i for entry i of the S-DL;
//   - hv is Key64(v), computed only for a chained u; an absent edge is
//     placed with it.
func (e *engine[W]) find(p *part2[W], u, v uint64) (w *W, at int64, hv uint64) {
	if p != nil {
		if p.chain != nil {
			hv = hashutil.Key64(v)
			if pos := p.chain.FindHashed(hv, v); pos.Found() {
				return p.chain.At(pos), int64(pos), hv
			}
		} else {
			for i := range p.inline {
				if p.inline[i].v == v {
					return &p.inline[i].w, int64(i), 0
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

// insertAt stores a verified-absent edge, reusing u's hash, its cell
// and v's hash from the find that reported the edge absent. It always
// succeeds: failures cascade into the denylists, and full denylists
// force transformations.
func (e *engine[W]) insertAt(hu uint64, p *part2[W], u, hv uint64, s slot[W]) {
	e.edges++
	switch {
	case p == nil:
		// First neighbour of a brand-new u (insertion Step 2, case ①/②).
		e.nodes++
		inline := make([]slot[W], 1, e.inlineCap)
		inline[0] = s
		e.insertCell(hu, u, part2[W]{inline: inline})
	case p.chain != nil:
		e.chainInsert(u, p.chain, hv, s)
	case len(p.inline) < e.inlineCap:
		p.inline = append(p.inline, s)
	default:
		// 2R small slots full: merge them into R large slots, enable the
		// 1st S-CHT and transfer every v into it (§III-A1 step ②).
		cfg := e.cfg.chainConfig()
		cfg.Seed = e.newChainSeed()
		p.chain = cuckoo.NewChain[W](e.cfg.SCHTBase, cfg)
		for _, old := range p.inline {
			e.chainInsert(u, p.chain, hashutil.Key64(old.v), old)
		}
		p.inline = nil
		e.chainInsert(u, p.chain, hashutil.Key64(s.v), s)
	}
}

// insertCell places a whole cell (u + Part 2) into the L-CHT, spilling
// to the L-DL on failure and forcing growth when the L-DL is full.
func (e *engine[W]) insertCell(hu, u uint64, p part2[W]) {
	leftovers, grew := e.lcht.InsertHashed(hu, u, p)
	var work []cuckoo.Entry[part2[W]]
	for {
		if grew {
			e.drainLDL()
		}
		if len(leftovers) != 0 {
			if !e.cfg.DisableDenylist && len(e.ldl)+len(leftovers) <= e.cfg.LDLCap {
				for _, lo := range leftovers {
					e.ldl = append(e.ldl, ldlEntry[W]{u: lo.Key, p: lo.Val})
				}
			} else {
				// Denylist disabled or full: force an expansion and
				// retry, the paper's fallback behaviour.
				work = append(work, e.lcht.Grow()...)
				e.drainLDL()
				work = append(work, leftovers...)
			}
		}
		if len(work) == 0 {
			return
		}
		cell := work[len(work)-1]
		work = work[:len(work)-1]
		leftovers, grew = e.lcht.Insert(cell.Key, cell.Val)
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
		leftovers, grew := e.lcht.Insert(c.u, c.p)
		if grew {
			// A nested growth re-queues what is already drained.
			e.drainLDL()
		}
		for _, lo := range leftovers {
			e.ldl = append(e.ldl, ldlEntry[W]{u: lo.Key, p: lo.Val})
		}
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
func (e *engine[W]) deleteAt(hu uint64, p *part2[W], u uint64, at int64) {
	e.edges--
	switch {
	case at < 0:
		e.sdl = slices.Delete(e.sdl, int(^at), int(^at)+1)
		e.setParked(u, e.parked[u]-1)
	case p.chain != nil:
		e.parkAll(u, p.chain.DeleteAt(cuckoo.Pos(at)))
		e.maybeCollapse(hu, u, p)
	default:
		p.inline[at] = p.inline[len(p.inline)-1]
		p.inline = p.inline[:len(p.inline)-1]
		e.settleInline(hu, u, p)
	}
}

// maybeCollapse applies the final step of reverse transformation: when a
// chain's population fits back into the 2R inline small slots, the chain
// is dismantled and the cell returns to inline form.
func (e *engine[W]) maybeCollapse(hu, u uint64, p *part2[W]) {
	if p.chain.Size() > e.inlineCap {
		return
	}
	e.schtKicksRetired += p.chain.Kicks()
	e.schtPlacementsRetired += p.chain.Placements()
	// The entries move straight from the chain's cells into the inline
	// slots, so a collapse allocates the inline slice and nothing else.
	inline := make([]slot[W], 0, e.inlineCap)
	p.chain.ForEachRef(func(v uint64, w *W) bool {
		inline = append(inline, slot[W]{v: v, w: *w})
		return true
	})
	p.inline, p.chain = inline, nil
	e.settleInline(hu, u, p)
}

// settleInline finishes a removal from u's inline cell: parked ⟨u,·⟩
// pairs move back into the freed slots, so no edge is stranded in the
// S-DL when its cell has room, and a cell left empty removes u from the
// L-CHT or L-DL.
func (e *engine[W]) settleInline(hu, u uint64, p *part2[W]) {
	e.unpark(u, func(s slot[W]) bool {
		if len(p.inline) == e.inlineCap {
			return false
		}
		p.inline = append(p.inline, s)
		return true
	})
	if len(p.inline) != 0 {
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
		for _, lo := range e.lcht.DeleteAt(pos) {
			e.ldl = append(e.ldl, ldlEntry[W]{u: lo.Key, p: lo.Val})
		}
		e.nodes--
	}
}

// forEachSuccessor visits every stored neighbour of u. The chain case
// hands fn straight to ForEachRef — no per-entry payload copy, no
// adapter closure — keeping the whole iteration allocation-free.
func (e *engine[W]) forEachSuccessor(u uint64, fn func(v uint64, w *W) bool) {
	e.forEachOf(e.findPart2(hashutil.Key64(u), u), u, fn)
}

// forEachOf is forEachSuccessor given u's cell (nil: u has none).
func (e *engine[W]) forEachOf(p *part2[W], u uint64, fn func(v uint64, w *W) bool) {
	if p != nil {
		if p.chain != nil {
			if !p.chain.ForEachRef(fn) {
				return
			}
		} else {
			for i := range p.inline {
				if !fn(p.inline[i].v, &p.inline[i].w) {
					return
				}
			}
		}
	}
	if e.numParked(u) == 0 {
		return
	}
	for i := range e.sdl {
		if e.sdl[i].u == u {
			if !fn(e.sdl[i].s.v, &e.sdl[i].s.w) {
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

// degreeOf is degree given u's cell (nil: u has none).
func (e *engine[W]) degreeOf(p *part2[W], u uint64) int {
	n := e.numParked(u)
	if p != nil {
		if p.chain != nil {
			n += p.chain.Size()
		} else {
			n += len(p.inline)
		}
	}
	return n
}

// preImage runs a copy-on-write hook just before an op changes u, whose
// cell is p. before is told u and its degree and returns nil, or a slice
// of that length for preImage to fill with u's successors as they stand
// — read from the cell the op's own probe found, not from a second one.
func (e *engine[W]) preImage(before func(u uint64, deg int) []uint64, p *part2[W], u uint64) {
	if dst := before(u, e.degreeOf(p, u)); len(dst) != 0 {
		i := 0
		e.forEachOf(p, u, func(v uint64, _ *W) bool {
			dst[i] = v
			i++
			return true
		})
	}
}

// forEachNode visits every stored source node u.
func (e *engine[W]) forEachNode(fn func(u uint64) bool) {
	stop := false
	e.lcht.ForEach(func(u uint64, _ part2[W]) bool {
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
// large pointer slots) + 1 B occupancy; S-CHT cells are 8 B per v plus
// the variant payload; denylists count their entry sizes.
func (e *engine[W]) memoryUsage(slotPayloadBytes int) uint64 {
	part2Bytes := 2 * e.cfg.R * 8
	total := e.lcht.MemoryBytes(part2Bytes)
	e.lcht.ForEach(func(_ uint64, p part2[W]) bool {
		if p.chain != nil {
			total += p.chain.MemoryBytes(slotPayloadBytes)
		}
		return true
	})
	for i := range e.ldl {
		total += uint64(8 + part2Bytes)
		if e.ldl[i].p.chain != nil {
			total += e.ldl[i].p.chain.MemoryBytes(slotPayloadBytes)
		}
	}
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
		SCHTKicks:       e.schtKicksRetired,
		SCHTPlacements:  e.schtPlacementsRetired,
		LDLLen:          len(e.ldl),
		SDLLen:          len(e.sdl),
		Transformations: e.lcht.Transformations(),
	}
	visit := func(p *part2[W]) {
		if p.chain == nil {
			return
		}
		st.Chains++
		st.SCHTTables += p.chain.Tables()
		st.ChainCells += p.chain.Cells()
		st.ChainEntries += p.chain.Size()
		st.SCHTKicks += p.chain.Kicks()
		st.SCHTPlacements += p.chain.Placements()
		st.Transformations += p.chain.Transformations()
	}
	e.lcht.ForEach(func(_ uint64, p part2[W]) bool {
		visit(&p)
		return true
	})
	for i := range e.ldl {
		visit(&e.ldl[i].p)
	}
	return st
}
