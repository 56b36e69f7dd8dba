package core

import (
	"fmt"
	"math/bits"
	"slices"

	"nocbt/internal/bitutil"
)

// maxWordBits is the widest value a Word holds, so popcounts fall in
// [0, maxWordBits] and the counting sorts below keep their bucket offsets
// in a fixed-size array.
const maxWordBits = 64

// buckets holds the first output position of every popcount bucket of a
// counting sort, [0, maxWordBits].
type buckets [maxWordBits + 1]int

// popcountKeys writes each word's counting-sort bucket into keys — its
// '1'-bit count, or width minus it for a descending sort — and the first
// output position of every bucket into next, so a stable scatter in input
// order needs no second popcount. keys must hold len(words) entries and
// width must be in (0, maxWordBits]; only next[:width+1] is written. It is
// one counting pass over the width+1 popcount buckets, O(n + width) — the
// shape of the '1'-count sorting unit of Han et al. (bin each value by its
// count, emit the bins in order).
func popcountKeys(next *buckets, keys []uint8, words []bitutil.Word, width int, descending bool) {
	if width <= 0 || width > maxWordBits {
		panic(fmt.Sprintf("core: word width %d out of range", width))
	}
	mask := ^uint64(0) >> uint(maxWordBits-width)
	keys = keys[:len(words)]
	clear(next[:width+1])
	for i, w := range words {
		c := bits.OnesCount64(uint64(w) & mask)
		if descending {
			c = width - c
		}
		keys[i] = uint8(c)
		next[c]++
	}
	pos := 0
	for b, n := range next[:width+1] {
		next[b] = pos
		pos += n
	}
}

// OrderDescending returns the words sorted by descending '1'-bit count and
// the permutation applied: ordered[i] == words[perm[i]]. The sort is stable,
// so equal popcounts keep their original relative order and the result is
// deterministic.
//
// This is the software model of the paper's ordering unit (Fig. 14:
// SWAR popcount followed by a sorting network); hardware cost is modelled
// in internal/hwmodel.
func OrderDescending(words []bitutil.Word, width int) ([]bitutil.Word, []int) {
	ordered := make([]bitutil.Word, len(words))
	perm := make([]int, len(words))
	if len(words) == 0 {
		return ordered, perm
	}
	keys := make([]uint8, len(words))
	var next buckets
	popcountKeys(&next, keys, words, width, true)
	for i, w := range words {
		b := keys[i]
		ordered[next[b]] = w
		perm[next[b]] = i
		next[b]++
	}
	return ordered, perm
}

// PackSequential packs words into flits of `lanes` values each, in order,
// padding the final flit with pad. This models the baseline (O0)
// flitization and, applied to a descending-ordered stream, the paper's
// "without NoC" ordered configuration: consecutive flits then carry
// adjacent-rank values.
func PackSequential(words []bitutil.Word, lanes int, pad bitutil.Word) [][]bitutil.Word {
	if lanes <= 0 {
		panic(fmt.Sprintf("core: non-positive lane count %d", lanes))
	}
	numFlits := (len(words) + lanes - 1) / lanes
	flits := make([][]bitutil.Word, 0, numFlits)
	for f := 0; f < numFlits; f++ {
		flit := make([]bitutil.Word, lanes)
		for l := 0; l < lanes; l++ {
			idx := f*lanes + l
			if idx < len(words) {
				flit[l] = words[idx]
			} else {
				flit[l] = pad
			}
		}
		flits = append(flits, flit)
	}
	return flits
}

// DistributeColumnMajor assigns rank-ordered words to numFlits flits of
// `lanes` values: rank r goes to flit r mod numFlits, lane r / numFlits.
//
// For numFlits == 2 this is exactly the §III-B optimal interleave
// x1 ≥ y1 ≥ x2 ≥ y2 ≥ …; generally it keeps each lane's values adjacent in
// rank across consecutive flits, which is what minimizes the expected BT of
// the flit sequence within one packet. Missing tail values pad with pad.
func DistributeColumnMajor(ranked []bitutil.Word, numFlits, lanes int, pad bitutil.Word) [][]bitutil.Word {
	if numFlits <= 0 || lanes <= 0 {
		panic(fmt.Sprintf("core: bad flit geometry %dx%d", numFlits, lanes))
	}
	if len(ranked) > numFlits*lanes {
		panic(fmt.Sprintf("core: %d values exceed %d flits × %d lanes", len(ranked), numFlits, lanes))
	}
	flits := make([][]bitutil.Word, numFlits)
	for f := range flits {
		flit := make([]bitutil.Word, lanes)
		for l := range flit {
			flit[l] = pad
		}
		flits[f] = flit
	}
	for r, w := range ranked {
		flits[r%numFlits][r/numFlits] = w
	}
	return flits
}

// StreamTransitions returns the total BT of a flit sequence traversing one
// link: the sum of lane-wise transitions between every consecutive flit
// pair at the given lane width.
func StreamTransitions(flits [][]bitutil.Word, width int) int {
	total := 0
	for i := 1; i < len(flits); i++ {
		total += bitutil.SliceTransitions(flits[i-1], flits[i], width)
	}
	return total
}

// Pair is one (weight, input) value pair of a DNN task. The weight drives
// affiliated ordering; the input either follows its weight (affiliated) or
// is ordered independently (separated).
type Pair struct {
	Weight bitutil.Word
	Input  bitutil.Word
}

// Ordered is the caller-owned destination of the in-place orderings: the
// transmission-ordered weight and input columns and, for SeparatedOrder,
// the partner table. Every ordering resizes the fields it writes to the
// task length, reusing their backing arrays when the capacity allows, so a
// caller ordering packet after packet into one Ordered stops allocating
// once its buffers have grown to the largest task.
type Ordered struct {
	// Weights and Inputs are the ordered columns.
	Weights []bitutil.Word
	Inputs  []bitutil.Word
	// PartnerIndex[i] is the position in Weights of the weight originally
	// paired with Inputs[i] — the "minimal-bit-width index" of separated
	// ordering, ⌈log₂ N⌉ bits per input. The pairing-preserving orderings
	// set it to nil.
	PartnerIndex []int

	// keys is the per-value popcount-bucket scratch of the counting sorts,
	// next their bucket positions: weights' in next[0], inputs' in next[1].
	keys []uint8
	next [2]buckets
	// nnKeys and nnIdx are HammingNNOrder's scratch: each pair's masked
	// (weight, input) key and its original index, walked-prefix first.
	nnKeys []uint64
	nnIdx  []int32
}

// resize sets dst's columns to n entries and its key scratch to keys,
// reusing their backing arrays when the capacity allows. Contents are
// unspecified.
func (dst *Ordered) resize(n, keys int) {
	dst.Weights = slices.Grow(dst.Weights[:0], n)[:n]
	dst.Inputs = slices.Grow(dst.Inputs[:0], n)[:n]
	dst.keys = slices.Grow(dst.keys[:0], keys)[:keys]
}

// AffiliatedOrder sorts the (weight, input) pairs by descending weight
// popcount into dst, keeping each input attached to its weight (§IV-A).
// Because pairing is preserved, no recovery information is needed
// downstream: conv/linear layers are order-invariant. The sort is stable:
// equal popcounts keep their original relative order.
func AffiliatedOrder(dst *Ordered, weights, inputs []bitutil.Word, width int) {
	affiliatedOrder(dst, weights, inputs, width, true)
}

// AscendingAffiliatedOrder sorts the (weight, input) pairs by ascending
// weight popcount into dst, keeping each input attached to its weight —
// the '1'-bit-count sorting-unit dual of AffiliatedOrder evaluated by Han
// et al. ("'1'-bit Count-based Sorting Unit to Reduce Link Power in DNN
// Accelerators"): the same sorting hardware with the comparator sense
// flipped. The stable sort keeps the result deterministic.
func AscendingAffiliatedOrder(dst *Ordered, weights, inputs []bitutil.Word, width int) {
	affiliatedOrder(dst, weights, inputs, width, false)
}

// affiliatedOrder is the stable counting sort of both affiliated orderings.
func affiliatedOrder(dst *Ordered, weights, inputs []bitutil.Word, width int, descending bool) {
	n := mustPair(weights, inputs)
	dst.resize(n, n)
	dst.PartnerIndex = nil
	if n == 0 {
		return
	}
	next := &dst.next[0]
	popcountKeys(next, dst.keys, weights, width, descending)
	for i, b := range dst.keys {
		r := next[b]
		next[b]++
		dst.Weights[r] = weights[i]
		dst.Inputs[r] = inputs[i]
	}
}

// mustPair returns the pair count of a task's weight and input columns,
// panicking when their lengths differ.
func mustPair(weights, inputs []bitutil.Word) int {
	if len(weights) != len(inputs) {
		panic(fmt.Sprintf("core: %d weights vs %d inputs", len(weights), len(inputs)))
	}
	return len(weights)
}

// HammingNNOrder orders the (weight, input) pairs into dst by a greedy
// nearest-neighbor walk over inter-value Hamming distance, the ordering
// family of Li et al. ("Improving Efficiency in Neural Network Accelerator
// Using Operands Hamming Distance Optimization"): consecutive transmitted
// values should differ in as few bit positions as possible, which directly
// minimizes the transitions their lane experiences. The walk starts at the
// pair with the highest weight popcount and repeatedly appends the unused
// pair minimizing HD(weight) + HD(input) to the previous pick. Pairing is
// preserved, so like AffiliatedOrder no recovery side-channel is needed.
// O(n²) in the task size, the same order as the transposition sorting
// network it would replace in hardware.
//
// Tie-break rule (load-bearing for determinism and the pinned golden
// outputs): both the anchor selection and every greedy step resolve ties in
// favour of the LOWEST ORIGINAL INDEX. The anchor is the first pair
// attaining the maximum weight popcount (strict > while scanning in index
// order); each step picks the first unused pair attaining the minimum
// summed Hamming distance (strict < while scanning in index order). Two
// permutations that sort the same multiset differently are NOT
// interchangeable here — the walk is path-dependent — so this rule is part
// of the strategy's wire-visible contract.
//
// The walk runs over a key table in dst's scratch: one key
// weight | input<<width per pair when both fit one machine word together
// (2·width ≤ 64), else a masked (weight, input) key pair, so a distance is
// one or two XOR+popcounts. Picked pairs move to the front of the table and
// the unused ones stay behind them in index order, which keeps the
// tie-break a plain first-minimum scan; a scan stops early at distance 0.
// A warm dst makes the walk allocation-free.
func HammingNNOrder(dst *Ordered, weights, inputs []bitutil.Word, width int) {
	n := mustPair(weights, inputs)
	dst.resize(n, 0)
	dst.PartnerIndex = nil
	if n == 0 {
		return
	}
	if width <= 0 || width > maxWordBits {
		panic(fmt.Sprintf("core: word width %d out of range", width))
	}
	mask := ^uint64(0) >> uint(maxWordBits-width)
	stride := 1
	if 2*width > maxWordBits {
		stride = 2
	}
	keys := slices.Grow(dst.nnKeys[:0], stride*n)[:stride*n]
	idx := slices.Grow(dst.nnIdx[:0], n)[:n]
	dst.nnKeys, dst.nnIdx = keys, idx
	start, best := 0, -1
	for i := range idx {
		w, in := uint64(weights[i])&mask, uint64(inputs[i])&mask
		if stride == 1 {
			keys[i] = w | in<<uint(width)
		} else {
			keys[2*i], keys[2*i+1] = w, in
		}
		idx[i] = int32(i)
		if c := bits.OnesCount64(w); c > best {
			start, best = i, c
		}
	}
	take(keys, idx, stride, 0, start)
	for k := 1; k < n; k++ {
		next := k
		if stride == 1 {
			ck, bestDist := keys[k-1], maxWordBits+1
			for j := k; j < n; j++ {
				if d := bits.OnesCount64(ck ^ keys[j]); d < bestDist {
					next, bestDist = j, d
					if d == 0 {
						break
					}
				}
			}
		} else {
			cw, ci, bestDist := keys[2*k-2], keys[2*k-1], 2*maxWordBits+1
			for j := k; j < n; j++ {
				if d := bits.OnesCount64(cw^keys[2*j]) + bits.OnesCount64(ci^keys[2*j+1]); d < bestDist {
					next, bestDist = j, d
					if d == 0 {
						break
					}
				}
			}
		}
		take(keys, idx, stride, k, next)
	}
	for k, i := range idx {
		dst.Weights[k] = weights[i]
		dst.Inputs[k] = inputs[i]
	}
}

// take moves the candidate at table position j to position k ≤ j, shifting
// positions k..j-1 up by one so they keep their order.
func take(keys []uint64, idx []int32, stride, k, j int) {
	i := idx[j]
	copy(idx[k+1:j+1], idx[k:j])
	idx[k] = i
	if stride == 1 {
		key := keys[j]
		copy(keys[k+1:j+1], keys[k:j])
		keys[k] = key
		return
	}
	w, in := keys[2*j], keys[2*j+1]
	copy(keys[2*k+2:2*j+2], keys[2*k:2*j])
	keys[2*k], keys[2*k+1] = w, in
}

// SeparatedOrder orders weights and inputs independently by descending
// popcount into dst (§IV-B) and computes the partner index side-channel
// needed to re-pair them at the PE. One pass over the task scatters both
// stable counting sorts: pair k's weight and input land at their ranks in
// the same step, so the input's partner entry is the weight's rank with no
// inverse permutation in between.
func SeparatedOrder(dst *Ordered, weights, inputs []bitutil.Word, width int) {
	n := mustPair(weights, inputs)
	dst.resize(n, 2*n)
	dst.PartnerIndex = slices.Grow(dst.PartnerIndex[:0], n)[:n]
	if n == 0 {
		return
	}
	keysW, keysI := dst.keys[:n], dst.keys[n:]
	nextW, nextI := &dst.next[0], &dst.next[1]
	popcountKeys(nextW, keysW, weights, width, true)
	popcountKeys(nextI, keysI, inputs, width, true)
	for k, bw := range keysW {
		bi := keysI[k]
		rw, ri := nextW[bw], nextI[bi]
		nextW[bw]++
		nextI[bi]++
		dst.Weights[rw] = weights[k]
		dst.Inputs[ri] = inputs[k]
		dst.PartnerIndex[ri] = rw
	}
}

// RecoverPairs reconstructs the original (weight, input) pairing from a
// separated-ordered packet — the PE-side de-ordering step. The returned
// pairs are in ordered-weight order, which is a consistent pairing (the
// dot product over them equals the original task's dot product). A partner
// table that is not a permutation of the pair positions is an error.
func (s *Ordered) RecoverPairs() ([]Pair, error) {
	if len(s.PartnerIndex) != len(s.Inputs) || len(s.Inputs) != len(s.Weights) {
		return nil, fmt.Errorf("core: %d weights, %d inputs, %d partner entries",
			len(s.Weights), len(s.Inputs), len(s.PartnerIndex))
	}
	if err := CheckPartnerIndex(s.PartnerIndex); err != nil {
		return nil, err
	}
	pairs := make([]Pair, len(s.Weights))
	for i, w := range s.Weights {
		pairs[i].Weight = w
	}
	for i, in := range s.Inputs {
		pairs[s.PartnerIndex[i]].Input = in
	}
	return pairs, nil
}

// CheckPartnerIndex reports an error unless partner is a permutation of
// [0, len(partner)). A receiver must check before re-pairing: an entry out
// of range would index past the task, and a repeated entry would silently
// drop one input and duplicate another. Tables up to 512 entries are
// checked without allocating.
func CheckPartnerIndex(partner []int) error {
	n := len(partner)
	var stack [8]uint64
	seen := stack[:]
	if words := (n + 63) / 64; words > len(stack) {
		seen = make([]uint64, words)
	}
	for i, p := range partner {
		if p < 0 || p >= n {
			return fmt.Errorf("core: partner index %d at position %d outside [0,%d)", p, i, n)
		}
		bit := uint64(1) << uint(p%64)
		if seen[p/64]&bit != 0 {
			return fmt.Errorf("core: partner index %d repeated at position %d", p, i)
		}
		seen[p/64] |= bit
	}
	return nil
}

// IndexBits returns the side-channel cost of separated-ordering for an
// n-value task: ⌈log₂ n⌉ bits per index.
func IndexBits(n int) int {
	if n <= 1 {
		return 0
	}
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}

// SplitPairs separates a pair slice into its weight and input columns.
func SplitPairs(pairs []Pair) (weights, inputs []bitutil.Word) {
	weights = make([]bitutil.Word, len(pairs))
	inputs = make([]bitutil.Word, len(pairs))
	for i, p := range pairs {
		weights[i] = p.Weight
		inputs[i] = p.Input
	}
	return weights, inputs
}

// ZipPairs combines weight and input columns into pairs.
func ZipPairs(weights, inputs []bitutil.Word) []Pair {
	if len(weights) != len(inputs) {
		panic(fmt.Sprintf("core: %d weights vs %d inputs", len(weights), len(inputs)))
	}
	pairs := make([]Pair, len(weights))
	for i := range pairs {
		pairs[i] = Pair{Weight: weights[i], Input: inputs[i]}
	}
	return pairs
}
