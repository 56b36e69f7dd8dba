package flit

import (
	"fmt"

	"nocbt/internal/bitutil"
	"nocbt/internal/core"
)

// Task is the payload of one DNN task: the (input, weight) pairs of one
// output neuron (or a segment of them) plus the bias (Fig. 2: k·k inputs,
// k·k weights, one bias).
type Task struct {
	Inputs  []bitutil.Word
	Weights []bitutil.Word
	// Bias is placed in the weight half of the last data flit.
	Bias bitutil.Word
}

// Options configures flitization.
type Options struct {
	// Ordering selects a registered ordering strategy by wire ID (the
	// paper's O0/O1/O2 or any strategy added via RegisterOrdering).
	Ordering Ordering
	// InBandIndex makes separated-ordering transmit its re-pairing indices
	// as extra index flits that cross the NoC (and therefore cost BT).
	// When false the index travels out-of-band, matching the paper's
	// negligible-overhead accounting; the ablation benches quantify the
	// difference.
	InBandIndex bool
}

// Flitized is the on-wire form of a task.
type Flitized struct {
	// Data is the half-half data flit payloads: lanes [0, half) carry
	// inputs, lanes [half, lanes) carry weights; the bias sits in the last
	// lane of the last data flit.
	Data []bitutil.Vec
	// Index is the separated-ordering index flit payloads (only when the
	// strategy emits a partner table and InBandIndex is set).
	Index []bitutil.Vec
	// PartnerIndex is the separated-ordering re-pairing table:
	// PartnerIndex[i] is the rank (in the ordered weight sequence) of the
	// weight paired with ordered input i. Nil for strategies that preserve
	// pairing (O0, O1, hamming-nn, popcount-asc).
	PartnerIndex []int

	// ordered is the ordering scratch: the ordered columns FlitizeInto
	// packs, reused from call to call.
	ordered Ordered
}

// Payloads returns all flit payloads in transmission order: data flits then
// index flits.
func (f Flitized) Payloads() []bitutil.Vec {
	return f.AppendPayloads(make([]bitutil.Vec, 0, len(f.Data)+len(f.Index)))
}

// AppendPayloads appends all flit payloads in transmission order to dst and
// returns the extended slice — the reuse-friendly form of Payloads for hot
// paths that keep a scratch slice across calls.
func (f Flitized) AppendPayloads(dst []bitutil.Vec) []bitutil.Vec {
	dst = append(dst, f.Data...)
	return append(dst, f.Index...)
}

// DataFlitCount returns how many data flits a task of n pairs needs: the
// smallest count whose lane grid holds n pairs plus the bias cell.
func (g Geometry) DataFlitCount(n int) int {
	half := g.HalfLanes()
	return (n + 1 + half - 1) / half
}

// Flitize converts a task into flit payloads under the chosen ordering.
// The ordering resolves through the strategy registry (strategy.go): the
// paper's O0/O1/O2 and any registered related-work or custom strategy flow
// through the same placement and recovery machinery.
//
// Placement: with M data flits and H = HalfLanes pair slots per flit,
// flit-major strategies (O0) fill pair k into flit k/H, slot k%H (the
// natural streaming order of Fig. 2); interleaving strategies (O1/O2 and
// every rank-ordering strategy) place rank r into flit r%M, slot r/M
// (column-major, Fig. 3): lane-wise, consecutive flits then carry
// adjacent-rank values, which is the §III-B optimal interleave generalized
// from two flits to M.
func Flitize(g Geometry, t Task, opt Options) (Flitized, error) {
	var out Flitized
	if err := FlitizeInto(g, t, opt, nil, &out); err != nil {
		return Flitized{}, err
	}
	return out, nil
}

// FlitizeInto is the recycling variant of Flitize: payload vectors are drawn
// from pool (falling back to fresh allocations when pool is nil or serves a
// different width), out's Data/Index slice headers are reused across calls,
// and the strategy orders into out's scratch columns. The produced payload
// vectors themselves are always fresh handles — they become owned by
// whatever packet carries them — so out can be reused immediately after
// the packet is built.
//
// For a partner-emitting strategy the table is written into the backing
// array of the out.PartnerIndex the call finds (grown when too short), so
// a caller reusing out reuses one table; a caller that must keep a table
// past the next call sets out.PartnerIndex to a table it owns — or to nil —
// before calling again.
func FlitizeInto(g Geometry, t Task, opt Options, pool *Pool, out *Flitized) error {
	if err := g.Validate(); err != nil {
		return err
	}
	n := len(t.Weights)
	if n == 0 {
		return fmt.Errorf("flit: empty task")
	}
	if len(t.Inputs) != n {
		return fmt.Errorf("flit: %d inputs vs %d weights", len(t.Inputs), n)
	}
	strat, ok := OrderingStrategyByID(opt.Ordering)
	if !ok {
		return fmt.Errorf("flit: unknown ordering %d (registered: %v)", int(opt.Ordering), OrderingNames())
	}

	ord := &out.ordered
	ord.PartnerIndex = nil
	if strat.EmitsPartner() {
		ord.PartnerIndex = out.PartnerIndex[:0]
	}
	strat.Order(ord, t.Weights, t.Inputs, g.LaneBits())
	if len(ord.Weights) != n || len(ord.Inputs) != n {
		return fmt.Errorf("flit: ordering %s returned %d weights and %d inputs for an %d-pair task",
			strat.Name(), len(ord.Weights), len(ord.Inputs), n)
	}
	partner := ord.PartnerIndex
	if strat.EmitsPartner() != (partner != nil) {
		return fmt.Errorf("flit: ordering %s partner table (%d entries) contradicts EmitsPartner=%v",
			strat.Name(), len(partner), strat.EmitsPartner())
	}

	m := g.DataFlitCount(n)
	data := out.Data[:0]
	for i := 0; i < m; i++ {
		data = append(data, poolVec(pool, g.LinkBits))
	}
	// Pooled vectors arrive zeroed, so every lane is ORed into place.
	lanes := newLaneGrid(g, m, strat.Interleave())
	inputs, weights := ord.Inputs, ord.Weights
	for fl, v := range data {
		words := v.Words()
		r, step := lanes.start(fl)
		for slot := 0; slot < lanes.half && r < n; slot, r = slot+1, r+step {
			lanes.put(words, slot, uint64(inputs[r]))
			lanes.put(words, lanes.half+slot, uint64(weights[r]))
		}
	}
	// Bias occupies the last lane of the last data flit; DataFlitCount
	// reserved that cell in both placement schemes.
	lanes.put(data[m-1].Words(), g.Lanes()-1, uint64(t.Bias))

	out.Data = data
	out.PartnerIndex = partner
	out.Index = out.Index[:0]
	if partner != nil && opt.InBandIndex {
		out.Index = appendPartnerIndex(g, partner, pool, out.Index)
	}
	return nil
}

// laneGrid is the lane placement of a task over m data flits. Every lane
// width divides 64 (2, 4, 8, 16 or 32 bits), so no lane straddles a
// backing word: a lane is one shift and one mask.
type laneGrid struct {
	m, half, bits int
	mask          uint64
	interleave    bool
}

func newLaneGrid(g Geometry, m int, interleave bool) laneGrid {
	lb := g.LaneBits()
	return laneGrid{m: m, half: g.HalfLanes(), bits: lb, mask: 1<<uint(lb) - 1, interleave: interleave}
}

// start returns the transmission rank carried by pair slot 0 of data flit
// fl and the rank step from one slot to the next. Interleaving strategies
// place rank r in flit r mod m, slot r div m (column-major, Fig. 3); the
// others fill flit r div half, slot r mod half.
func (l *laneGrid) start(fl int) (r, step int) {
	if l.interleave {
		return fl, l.m
	}
	return fl * l.half, 1
}

// put ORs the low lane bits of v into lane i, which must be zero.
func (l *laneGrid) put(words []uint64, i int, v uint64) {
	off := uint(i * l.bits)
	words[off>>6] |= (v & l.mask) << (off & 63)
}

// get reads lane i.
func (l *laneGrid) get(words []uint64, i int) uint64 {
	off := uint(i * l.bits)
	return words[off>>6] >> (off & 63) & l.mask
}

// poolVec returns an all-zero g-wide vector from pool when it serves that
// width, from the heap otherwise.
func poolVec(pool *Pool, width int) bitutil.Vec {
	if pool != nil && pool.Width() == width {
		return pool.Vec()
	}
	return bitutil.NewVec(width)
}

// Deflitize reconstructs a consistently paired task from data flit
// payloads. n is the pair count (from the packet header) and ord the
// ordering the sender applied, resolved through the strategy registry. For
// partner-emitting strategies (O2 and kin) the partner table must be
// supplied (decoded from index flits or passed out-of-band).
//
// The returned task's pairs are NOT in the original task order — they are
// in the sender's transmission rank order with pairing restored, which is
// all a conv/linear consumer needs (order invariance, Fig. 5).
func Deflitize(g Geometry, data []bitutil.Vec, n int, ord Ordering, partner []int) (Task, error) {
	var out Task
	if err := DeflitizeInto(g, data, n, ord, partner, &out); err != nil {
		return Task{}, err
	}
	return out, nil
}

// DeflitizeInto is Deflitize reusing out's Inputs/Weights backing arrays, so
// a consumer decoding packet after packet (the PE model) stops allocating
// once its scratch has grown to the largest segment. Pairing is restored in
// place: each received input lands directly at its partner's rank. A
// partner table that is not a permutation of [0, n) — an index flit
// corrupted in flight, or an n that is not a power of two decoding past
// the task — is an error. On error out is left unspecified.
func DeflitizeInto(g Geometry, data []bitutil.Vec, n int, ord Ordering, partner []int, out *Task) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if n <= 0 {
		return fmt.Errorf("flit: non-positive pair count %d", n)
	}
	strat, ok := OrderingStrategyByID(ord)
	if !ok {
		return fmt.Errorf("flit: unknown ordering %d (registered: %v)", int(ord), OrderingNames())
	}
	m := g.DataFlitCount(n)
	if len(data) != m {
		return fmt.Errorf("flit: %d data flits for %d pairs, want %d", len(data), n, m)
	}
	for i, v := range data {
		if v.Width() != g.LinkBits {
			return fmt.Errorf("flit: data flit %d is %d bits wide, link is %d", i, v.Width(), g.LinkBits)
		}
	}
	repair := strat.EmitsPartner()
	if repair {
		if len(partner) != n {
			return fmt.Errorf("flit: partner table length %d, want %d", len(partner), n)
		}
		if err := core.CheckPartnerIndex(partner); err != nil {
			return fmt.Errorf("flit: %w", err)
		}
	}
	lanes := newLaneGrid(g, m, strat.Interleave())
	inputs := growWords(out.Inputs, n)
	weights := growWords(out.Weights, n)
	for fl, v := range data {
		words := v.Words()
		r, step := lanes.start(fl)
		for slot := 0; slot < lanes.half && r < n; slot, r = slot+1, r+step {
			// Weights stay in transmission rank order; under a partner
			// table the input of rank r belongs to the weight of rank
			// partner[r].
			in := r
			if repair {
				in = partner[r]
			}
			inputs[in] = bitutil.Word(lanes.get(words, slot))
			weights[r] = bitutil.Word(lanes.get(words, lanes.half+slot))
		}
	}
	bias := bitutil.Word(lanes.get(data[m-1].Words(), g.Lanes()-1))
	*out = Task{Inputs: inputs, Weights: weights, Bias: bias}
	return nil
}

// growWords returns s resized to length n, reusing its backing array when
// the capacity allows. Contents are unspecified.
func growWords(s []bitutil.Word, n int) []bitutil.Word {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]bitutil.Word, n)
}

// EncodePartnerIndex packs the separated-ordering partner table into index
// flit payloads: n fields of core.IndexBits(n) bits each, packed LSB-first
// across as many link-wide flits as needed. For n == 1 the index is empty
// and no flits are produced.
func EncodePartnerIndex(g Geometry, partner []int) []bitutil.Vec {
	return appendPartnerIndex(g, partner, nil, nil)
}

// appendPartnerIndex is EncodePartnerIndex with pooled vectors and a
// reusable destination slice.
func appendPartnerIndex(g Geometry, partner []int, pool *Pool, dst []bitutil.Vec) []bitutil.Vec {
	n := len(partner)
	ib := core.IndexBits(n)
	if ib == 0 {
		return dst
	}
	perFlit := g.LinkBits / ib
	if perFlit == 0 {
		panic(fmt.Sprintf("flit: %d-bit index wider than %d-bit link", ib, g.LinkBits))
	}
	numFlits := (n + perFlit - 1) / perFlit
	base := len(dst)
	for i := 0; i < numFlits; i++ {
		dst = append(dst, poolVec(pool, g.LinkBits))
	}
	for i, p := range partner {
		fl, slot := i/perFlit, i%perFlit
		dst[base+fl].SetField(slot*ib, ib, uint64(p))
	}
	return dst
}

// DecodePartnerIndex reverses EncodePartnerIndex for an n-pair task. A
// non-positive n — a malformed header count — is an error, mirroring
// Deflitize's validation: the old code silently returned a nil table for
// it, deferring the failure to whatever indexed the table later. The
// decoded entries are IndexBits(n) wide, so they are not range-checked
// here; Deflitize rejects a table that is not a permutation.
func DecodePartnerIndex(g Geometry, vecs []bitutil.Vec, n int) ([]int, error) {
	return DecodePartnerIndexInto(g, vecs, n, nil)
}

// DecodePartnerIndexInto is DecodePartnerIndex reusing dst's backing array,
// for receivers decoding one packet after another.
func DecodePartnerIndexInto(g Geometry, vecs []bitutil.Vec, n int, dst []int) ([]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("flit: non-positive pair count %d", n)
	}
	ib := core.IndexBits(n)
	if ib == 0 {
		// IndexBits is zero only for n == 1: a single pair re-pairs with
		// itself and needs no on-wire index.
		return append(dst[:0], 0), nil
	}
	perFlit := g.LinkBits / ib
	if perFlit == 0 {
		return nil, fmt.Errorf("flit: %d-bit index wider than %d-bit link", ib, g.LinkBits)
	}
	want := (n + perFlit - 1) / perFlit
	if len(vecs) != want {
		return nil, fmt.Errorf("flit: %d index flits for %d pairs, want %d", len(vecs), n, want)
	}
	partner := dst[:0]
	for i := 0; i < n; i++ {
		fl, slot := i/perFlit, i%perFlit
		partner = append(partner, int(vecs[fl].Field(slot*ib, ib)))
	}
	return partner, nil
}

// IndexFlitCount returns how many index flits separated-ordering adds for
// an n-pair task under geometry g.
func (g Geometry) IndexFlitCount(n int) int {
	ib := core.IndexBits(n)
	if ib == 0 {
		return 0
	}
	perFlit := g.LinkBits / ib
	if perFlit == 0 {
		panic(fmt.Sprintf("flit: %d-bit index wider than %d-bit link", ib, g.LinkBits))
	}
	return (n + perFlit - 1) / perFlit
}
