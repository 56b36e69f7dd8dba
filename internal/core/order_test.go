package core

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"nocbt/internal/bitutil"
	"nocbt/internal/quant"
)

func randWords(n, width int, rng *rand.Rand) []bitutil.Word {
	out := make([]bitutil.Word, n)
	mask := uint64(1)<<uint(width) - 1
	for i := range out {
		out[i] = bitutil.Word(rng.Uint64() & mask)
	}
	return out
}

func TestOrderDescendingProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		width := []int{8, 32}[trial%2]
		words := randWords(1+rng.Intn(50), width, rng)
		ordered, perm := OrderDescending(words, width)

		if len(ordered) != len(words) || len(perm) != len(words) {
			t.Fatalf("length mismatch")
		}
		// perm is a permutation and ordered[i] == words[perm[i]].
		seen := make([]bool, len(words))
		for i, p := range perm {
			if p < 0 || p >= len(words) || seen[p] {
				t.Fatalf("invalid permutation %v", perm)
			}
			seen[p] = true
			if ordered[i] != words[p] {
				t.Fatalf("ordered[%d] != words[perm[%d]]", i, i)
			}
		}
		// Descending popcounts.
		counts := Popcounts(ordered, width)
		for i := 1; i < len(counts); i++ {
			if counts[i] > counts[i-1] {
				t.Fatalf("popcounts not descending at %d: %v", i, counts)
			}
		}
		// Multiset preserved.
		a := append([]bitutil.Word(nil), words...)
		b := append([]bitutil.Word(nil), ordered...)
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("multiset changed")
			}
		}
	}
}

func TestOrderDescendingStable(t *testing.T) {
	// Equal popcounts must keep original order: 0x03 (2 ones) before 0x05
	// (2 ones) before 0x06 (2 ones).
	words := []bitutil.Word{0x03, 0x05, 0xFF, 0x06}
	ordered, _ := OrderDescending(words, 8)
	want := []bitutil.Word{0xFF, 0x03, 0x05, 0x06}
	for i := range want {
		if ordered[i] != want[i] {
			t.Errorf("ordered[%d] = %#x, want %#x (stability)", i, ordered[i], want[i])
		}
	}
}

func TestOrderDescendingEmpty(t *testing.T) {
	ordered, perm := OrderDescending(nil, 8)
	if len(ordered) != 0 || len(perm) != 0 {
		t.Error("empty input must give empty output")
	}
}

func TestPackSequential(t *testing.T) {
	words := []bitutil.Word{1, 2, 3, 4, 5}
	flits := PackSequential(words, 2, 0xEE)
	if len(flits) != 3 {
		t.Fatalf("flit count %d, want 3", len(flits))
	}
	if flits[0][0] != 1 || flits[0][1] != 2 || flits[2][0] != 5 {
		t.Errorf("unexpected packing %v", flits)
	}
	if flits[2][1] != 0xEE {
		t.Errorf("padding = %#x, want 0xEE", flits[2][1])
	}
}

func TestPackSequentialBadLanesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("did not panic")
		}
	}()
	PackSequential(nil, 0, 0)
}

func TestDistributeColumnMajorTwoFlits(t *testing.T) {
	// Ranks 0..5 over 2 flits × 3 lanes: flit0 = [0,2,4], flit1 = [1,3,5].
	// Lane-wise this is the paper's x1 ≥ y1 ≥ x2 ≥ y2 ≥ x3 ≥ y3 interleave.
	ranked := []bitutil.Word{10, 11, 12, 13, 14, 15}
	flits := DistributeColumnMajor(ranked, 2, 3, 0)
	if flits[0][0] != 10 || flits[0][1] != 12 || flits[0][2] != 14 {
		t.Errorf("flit0 = %v", flits[0])
	}
	if flits[1][0] != 11 || flits[1][1] != 13 || flits[1][2] != 15 {
		t.Errorf("flit1 = %v", flits[1])
	}
}

func TestDistributeColumnMajorPadding(t *testing.T) {
	ranked := []bitutil.Word{1, 2, 3}
	flits := DistributeColumnMajor(ranked, 2, 3, 0xAA)
	// rank0→f0l0, rank1→f1l0, rank2→f0l1; rest pad.
	if flits[0][0] != 1 || flits[1][0] != 2 || flits[0][1] != 3 {
		t.Errorf("placement wrong: %v", flits)
	}
	if flits[1][1] != 0xAA || flits[0][2] != 0xAA || flits[1][2] != 0xAA {
		t.Errorf("padding wrong: %v", flits)
	}
}

func TestDistributeColumnMajorOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("did not panic")
		}
	}()
	DistributeColumnMajor(make([]bitutil.Word, 7), 2, 3, 0)
}

func TestStreamTransitions(t *testing.T) {
	flits := [][]bitutil.Word{
		{0x00, 0xFF},
		{0x0F, 0xFF}, // 4 flips on lane 0
		{0x0F, 0x00}, // 8 flips on lane 1
	}
	if got := StreamTransitions(flits, 8); got != 12 {
		t.Errorf("StreamTransitions = %d, want 12", got)
	}
	if got := StreamTransitions(flits[:1], 8); got != 0 {
		t.Errorf("single flit stream BT = %d, want 0", got)
	}
	if got := StreamTransitions(nil, 8); got != 0 {
		t.Errorf("empty stream BT = %d, want 0", got)
	}
}

// TestInterleaveOptimalityExhaustive verifies the §III-B claim: over every
// way of arranging 2N values into two N-lane flits, the descending
// interleave achieves the maximum F = Σ xi·yi.
func TestInterleaveOptimalityExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(3) // N ∈ {2,3,4}
		vals := make([]int, 2*n)
		for i := range vals {
			vals[i] = rng.Intn(33)
		}

		// The count-based strategy: sort descending, interleave.
		sorted := append([]int(nil), vals...)
		sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
		xs := make([]int, n)
		ys := make([]int, n)
		for i := 0; i < n; i++ {
			xs[i] = sorted[2*i]
			ys[i] = sorted[2*i+1]
		}
		fCount := PairProductSum(xs, ys)

		// Exhaustive maximum over all subset choices for flit 1; the best
		// lane pairing for a fixed split is descending-descending (the
		// rearrangement inequality), so checking splits suffices for the
		// true maximum.
		best := -1
		for mask := 0; mask < 1<<(2*n); mask++ {
			if popcountInt(mask) != n {
				continue
			}
			var a, b []int
			for i, v := range vals {
				if mask>>uint(i)&1 == 1 {
					a = append(a, v)
				} else {
					b = append(b, v)
				}
			}
			sort.Sort(sort.Reverse(sort.IntSlice(a)))
			sort.Sort(sort.Reverse(sort.IntSlice(b)))
			if f := PairProductSum(a, b); f > best {
				best = f
			}
		}
		if fCount != best {
			t.Fatalf("trial %d: count-based F=%d, exhaustive max=%d (vals %v)",
				trial, fCount, best, vals)
		}
	}
}

func popcountInt(v int) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// TestPairwiseExchangeLemma checks the paper's local step: for four counts
// with x1 ≥ y1 ≥ x2 ≥ y2, the aligned pairing dominates both alternatives.
func TestPairwiseExchangeLemma(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		v := []int{int(a) % 33, int(b) % 33, int(c) % 33, int(d) % 33}
		sort.Sort(sort.Reverse(sort.IntSlice(v)))
		x1, y1, x2, y2 := v[0], v[1], v[2], v[3]
		aligned := x1*y1 + x2*y2
		cross1 := x1*y2 + x2*y1
		cross2 := x1*x2 + y1*y2
		return aligned >= cross1 && aligned >= cross2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestOrderingReducesStreamBT is the end-to-end statistical check behind
// Tab. I: on random data, ordered packing must produce no more transitions
// than the baseline packing.
func TestOrderingReducesStreamBT(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, width := range []int{8, 32} {
		words := randWords(800, width, rng)
		baseline := StreamTransitions(PackSequential(words, 8, 0), width)
		ordered, _ := OrderDescending(words, width)
		orderedBT := StreamTransitions(PackSequential(ordered, 8, 0), width)
		if orderedBT >= baseline {
			t.Errorf("width %d: ordered BT %d not below baseline %d", width, orderedBT, baseline)
		}
	}
}

func TestAffiliatedOrderKeepsPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	weights := randWords(40, 8, rng)
	inputs := randWords(40, 8, rng)
	pairs := ZipPairs(weights, inputs)
	ordered := orderPairs(AffiliatedOrder, pairs, 8)

	// Weights descending.
	for i := 1; i < len(ordered); i++ {
		if ordered[i].Weight.OnesCount(8) > ordered[i-1].Weight.OnesCount(8) {
			t.Fatalf("weights not descending at %d", i)
		}
	}
	// Pairing preserved: the ordered pairs are a permutation of the task's.
	checkSamePairs(t, ordered, pairs)
}

// orderPairs runs an in-place column ordering on pairs into a fresh
// destination and zips the ordered columns back into pairs.
func orderPairs(order func(*Ordered, []bitutil.Word, []bitutil.Word, int), pairs []Pair, width int) []Pair {
	var dst Ordered
	weights, inputs := SplitPairs(pairs)
	order(&dst, weights, inputs, width)
	return ZipPairs(dst.Weights, dst.Inputs)
}

// checkSamePairs fails unless got is a permutation of want.
func checkSamePairs(t *testing.T, got, want []Pair) {
	t.Helper()
	count := make(map[Pair]int)
	for _, p := range want {
		count[p]++
	}
	for i, p := range got {
		if count[p] == 0 {
			t.Fatalf("ordered pair %d %+v is not a pair of the task", i, p)
		}
		count[p]--
	}
	if len(got) != len(want) {
		t.Fatalf("%d ordered pairs for a %d-pair task", len(got), len(want))
	}
}

func TestAffiliatedOrderPreservesDotProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := 30
	w8 := make([]int8, n)
	i8 := make([]int8, n)
	for i := range w8 {
		w8[i] = int8(rng.Intn(255) - 127)
		i8[i] = int8(rng.Intn(255) - 127)
	}
	want := quant.DotQ(w8, i8)

	pairs := ZipPairs(bitutil.Fixed8Words(w8), bitutil.Fixed8Words(i8))
	ordered := orderPairs(AffiliatedOrder, pairs, 8)
	ow := make([]int8, n)
	oi := make([]int8, n)
	for i, p := range ordered {
		ow[i] = bitutil.WordFixed8(p.Weight)
		oi[i] = bitutil.WordFixed8(p.Input)
	}
	if got := quant.DotQ(ow, oi); got != want {
		t.Errorf("affiliated-ordered dot %d, want %d", got, want)
	}
}

func TestSeparatedOrderRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(60)
		w8 := make([]int8, n)
		i8 := make([]int8, n)
		for i := range w8 {
			w8[i] = int8(rng.Intn(255) - 127)
			i8[i] = int8(rng.Intn(255) - 127)
		}
		want := quant.DotQ(w8, i8)

		var sep Ordered
		SeparatedOrder(&sep, bitutil.Fixed8Words(w8), bitutil.Fixed8Words(i8), 8)

		// Both columns descending.
		for i := 1; i < n; i++ {
			if sep.Weights[i].OnesCount(8) > sep.Weights[i-1].OnesCount(8) {
				t.Fatalf("weights not descending")
			}
			if sep.Inputs[i].OnesCount(8) > sep.Inputs[i-1].OnesCount(8) {
				t.Fatalf("inputs not descending")
			}
		}

		pairs, err := sep.RecoverPairs()
		if err != nil {
			t.Fatal(err)
		}
		ow := make([]int8, n)
		oi := make([]int8, n)
		for i, p := range pairs {
			ow[i] = bitutil.WordFixed8(p.Weight)
			oi[i] = bitutil.WordFixed8(p.Input)
		}
		if got := quant.DotQ(ow, oi); got != want {
			t.Fatalf("trial %d: recovered dot %d, want %d", trial, got, want)
		}
	}
}

func TestSeparatedOrderMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("did not panic")
		}
	}()
	SeparatedOrder(&Ordered{}, make([]bitutil.Word, 2), make([]bitutil.Word, 3), 8)
}

// TestSeparatedBeatsAffiliatedOnInputs: separated-ordering also orders the
// input half, so the input-half stream BT must not exceed the affiliated
// arrangement's input-half BT on random data.
func TestSeparatedBeatsAffiliatedOnInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	weights := randWords(400, 8, rng)
	inputs := randWords(400, 8, rng)

	var aff, sep Ordered
	AffiliatedOrder(&aff, weights, inputs, 8)
	affInputs := aff.Inputs
	SeparatedOrder(&sep, weights, inputs, 8)

	affBT := StreamTransitions(PackSequential(affInputs, 8, 0), 8)
	sepBT := StreamTransitions(PackSequential(sep.Inputs, 8, 0), 8)
	if sepBT > affBT {
		t.Errorf("separated input BT %d exceeds affiliated %d", sepBT, affBT)
	}
}

func TestIndexBits(t *testing.T) {
	tests := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{16, 4}, {17, 5}, {25, 5}, {26, 5}, {400, 9},
	}
	for _, tt := range tests {
		if got := IndexBits(tt.n); got != tt.want {
			t.Errorf("IndexBits(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestZipSplitPairs(t *testing.T) {
	w := []bitutil.Word{1, 2, 3}
	in := []bitutil.Word{4, 5, 6}
	pairs := ZipPairs(w, in)
	gw, gi := SplitPairs(pairs)
	for i := range w {
		if gw[i] != w[i] || gi[i] != in[i] {
			t.Errorf("round trip broke at %d", i)
		}
	}
}

func TestZipPairsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("did not panic")
		}
	}()
	ZipPairs(make([]bitutil.Word, 1), make([]bitutil.Word, 2))
}

// TestAscendingAffiliatedOrderProperties: ascending '1'-count and pairing
// preserved — the Han et al. sorting-unit dual.
func TestAscendingAffiliatedOrderProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		pairs := ZipPairs(randWords(n, 8, rng), randWords(n, 8, rng))
		ordered := orderPairs(AscendingAffiliatedOrder, pairs, 8)
		checkSamePairs(t, ordered, pairs)
		for i := 1; i < len(ordered); i++ {
			if ordered[i].Weight.OnesCount(8) < ordered[i-1].Weight.OnesCount(8) {
				t.Fatalf("weights not ascending at %d", i)
			}
		}
	}
}

// TestAscendingIsReverseOfDescendingCounts: the two affiliated orders must
// produce mirrored popcount sequences on the same input.
func TestAscendingIsReverseOfDescendingCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	pairs := ZipPairs(randWords(30, 8, rng), randWords(30, 8, rng))
	desc := orderPairs(AffiliatedOrder, pairs, 8)
	asc := orderPairs(AscendingAffiliatedOrder, pairs, 8)
	for i := range desc {
		if desc[i].Weight.OnesCount(8) != asc[len(asc)-1-i].Weight.OnesCount(8) {
			t.Fatalf("count sequences not mirrored at %d", i)
		}
	}
}

// TestHammingNNOrderProperties: valid permutation, pairing preserved,
// deterministic, starts at the max-popcount weight.
func TestHammingNNOrderProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		pairs := ZipPairs(randWords(n, 8, rng), randWords(n, 8, rng))
		ordered, perm := hammingNN(&Ordered{}, pairs, 8)
		if len(ordered) != n || len(perm) != n {
			t.Fatalf("length mismatch for n=%d", n)
		}
		seen := make([]bool, n)
		for i, p := range perm {
			if seen[p] {
				t.Fatalf("perm reuses index %d", p)
			}
			seen[p] = true
			if ordered[i] != pairs[p] {
				t.Fatalf("ordered[%d] != pairs[perm[%d]]", i, i)
			}
		}
		best := 0
		for _, p := range pairs {
			if c := p.Weight.OnesCount(8); c > best {
				best = c
			}
		}
		if got := ordered[0].Weight.OnesCount(8); got != best {
			t.Fatalf("walk starts at popcount %d, want max %d", got, best)
		}
		again, perm2 := hammingNN(&Ordered{}, pairs, 8)
		for i := range again {
			if again[i] != ordered[i] || perm2[i] != perm[i] {
				t.Fatal("HammingNNOrder not deterministic")
			}
		}
	}
	var dst Ordered
	HammingNNOrder(&dst, nil, nil, 8)
	if len(dst.Weights) != 0 || len(dst.Inputs) != 0 || dst.PartnerIndex != nil {
		t.Error("empty input should order to empty columns")
	}
}

// TestHammingNNOrderReducesAdjacentDistance: on average the greedy walk
// must yield a lower summed adjacent Hamming distance than natural order —
// the quantity Li et al. minimize.
func TestHammingNNOrderReducesAdjacentDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	adjacent := func(pairs []Pair) int {
		total := 0
		for i := 1; i < len(pairs); i++ {
			total += pairs[i-1].Weight.HammingDistance(pairs[i].Weight, 8) +
				pairs[i-1].Input.HammingDistance(pairs[i].Input, 8)
		}
		return total
	}
	var natural, greedy int
	for trial := 0; trial < 100; trial++ {
		pairs := ZipPairs(randWords(25, 8, rng), randWords(25, 8, rng))
		ordered, _ := hammingNN(&Ordered{}, pairs, 8)
		natural += adjacent(pairs)
		greedy += adjacent(ordered)
	}
	if !(greedy < natural) {
		t.Errorf("greedy adjacent distance %d not below natural %d", greedy, natural)
	}
}

// hammingNN runs HammingNNOrder on pairs into dst and returns the ordered
// pairs and the walk's permutation, read from dst's index scratch.
func hammingNN(dst *Ordered, pairs []Pair, width int) ([]Pair, []int) {
	weights, inputs := SplitPairs(pairs)
	HammingNNOrder(dst, weights, inputs, width)
	if len(pairs) == 0 {
		return nil, nil
	}
	perm := make([]int, len(dst.nnIdx))
	for k, i := range dst.nnIdx {
		perm[k] = int(i)
	}
	return ZipPairs(dst.Weights, dst.Inputs), perm
}

// naiveHammingNN is the pre-packed-key reference walk, kept in the tests as
// the oracle for the packed-popcount fast path: explicit first-index
// tie-breaks, per-value HammingDistance calls, no key table.
func naiveHammingNN(pairs []Pair, width int) ([]Pair, []int) {
	n := len(pairs)
	if n == 0 {
		return nil, nil
	}
	used := make([]bool, n)
	perm := make([]int, 0, n)
	start, best := 0, -1
	for i, p := range pairs {
		if c := p.Weight.OnesCount(width); c > best {
			start, best = i, c
		}
	}
	cur := start
	used[cur] = true
	perm = append(perm, cur)
	for len(perm) < n {
		next, bestDist := -1, -1
		for i := range pairs {
			if used[i] {
				continue
			}
			d := pairs[cur].Weight.HammingDistance(pairs[i].Weight, width) +
				pairs[cur].Input.HammingDistance(pairs[i].Input, width)
			if next == -1 || d < bestDist {
				next, bestDist = i, d
			}
		}
		used[next] = true
		perm = append(perm, next)
		cur = next
	}
	ordered := make([]Pair, n)
	for i, p := range perm {
		ordered[i] = pairs[p]
	}
	return ordered, perm
}

// TestHammingNNOrderTieBreak is the table-driven pin of the documented
// tie-break contract: the anchor is the FIRST pair attaining the maximum
// weight popcount, and each greedy step picks the FIRST unused pair
// attaining the minimum summed Hamming distance. The walk is
// path-dependent, so these cases would diverge under any other rule.
func TestHammingNNOrderTieBreak(t *testing.T) {
	cases := []struct {
		name     string
		weights  []uint64
		inputs   []uint64
		width    int
		wantPerm []int
	}{
		{
			// All pairs identical: every anchor candidate and every step
			// ties; lowest-index resolution yields the identity walk.
			name:     "all identical",
			weights:  []uint64{0x0F, 0x0F, 0x0F, 0x0F},
			inputs:   []uint64{0xAA, 0xAA, 0xAA, 0xAA},
			width:    8,
			wantPerm: []int{0, 1, 2, 3},
		},
		{
			// Indices 1 and 3 share the maximum weight popcount (4); the
			// anchor must be index 1, the first of them. From 0x0F at
			// distance counting, index 3 (identical pair) is distance 0.
			name:     "anchor ties to first max popcount",
			weights:  []uint64{0x01, 0x0F, 0x03, 0x0F},
			inputs:   []uint64{0x00, 0x00, 0x00, 0x00},
			width:    8,
			wantPerm: []int{1, 3, 2, 0},
		},
		{
			// After anchor 0 (popcount 8), candidates 1 and 2 are both at
			// distance 4 on weights with identical inputs: the tied step
			// must take index 1 (0xF0). From there 0x00 is distance 4 and
			// 0x0F distance 8, so the walk ends 3 then 2.
			name:     "step ties to first min distance",
			weights:  []uint64{0xFF, 0xF0, 0x0F, 0x00},
			inputs:   []uint64{0x55, 0x55, 0x55, 0x55},
			width:    8,
			wantPerm: []int{0, 1, 3, 2},
		},
		{
			// Same multiset with 0x0F and 0xF0 swapped: the tied first step
			// now picks 0x0F (index 1), proving the rule reads original
			// indices, not values.
			name:     "step ties follow index order not value order",
			weights:  []uint64{0xFF, 0x0F, 0xF0, 0x00},
			inputs:   []uint64{0x55, 0x55, 0x55, 0x55},
			width:    8,
			wantPerm: []int{0, 1, 3, 2},
		},
		{
			name:     "single pair",
			weights:  []uint64{0x12},
			inputs:   []uint64{0x34},
			width:    8,
			wantPerm: []int{0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws := make([]bitutil.Word, len(tc.weights))
			ins := make([]bitutil.Word, len(tc.inputs))
			for i := range ws {
				ws[i] = bitutil.Word(tc.weights[i])
				ins[i] = bitutil.Word(tc.inputs[i])
			}
			pairs := ZipPairs(ws, ins)
			ordered, perm := hammingNN(&Ordered{}, pairs, tc.width)
			for i := range tc.wantPerm {
				if perm[i] != tc.wantPerm[i] {
					t.Fatalf("perm = %v, want %v", perm, tc.wantPerm)
				}
				if ordered[i] != pairs[perm[i]] {
					t.Fatalf("ordered[%d] does not match pairs[perm[%d]]", i, i)
				}
			}
		})
	}
}

// TestHammingNNOrderPackedMatchesNaive: the packed-key fast path (2·width ≤
// 64) must walk exactly like the per-value reference for every width it
// covers, and the generic path must equal the reference above the packing
// limit. One destination serves every trial, so stale scratch from a larger
// task must not leak into a smaller one.
func TestHammingNNOrderPackedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var dst Ordered
	for _, width := range []int{4, 8, 16, 32, 64} {
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(30)
			pairs := ZipPairs(randWords(n, width, rng), randWords(n, width, rng))
			gotOrd, gotPerm := hammingNN(&dst, pairs, width)
			wantOrd, wantPerm := naiveHammingNN(pairs, width)
			for i := range wantPerm {
				if gotPerm[i] != wantPerm[i] || gotOrd[i] != wantOrd[i] {
					t.Fatalf("width %d n %d: perm %v, reference %v", width, n, gotPerm, wantPerm)
				}
			}
		}
	}
}

// TestHammingNNOrderAllocFree: once a destination has grown to the task
// size, the walk reuses its columns and key/index scratch and allocates
// nothing, on both the packed and the key-pair path.
func TestHammingNNOrderAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, width := range []int{8, 64} {
		weights, inputs := randWords(200, width, rng), randWords(200, width, rng)
		var dst Ordered
		HammingNNOrder(&dst, weights, inputs, width)
		avg := testing.AllocsPerRun(20, func() {
			HammingNNOrder(&dst, weights, inputs, width)
		})
		if avg != 0 {
			t.Errorf("width %d: HammingNNOrder allocates %.1f objects in a warm destination, want 0", width, avg)
		}
	}
}

// FuzzHammingNNOrder compares the walk with the per-value reference on
// fuzzed tasks of up to 300 pairs. Values are drawn from a small fuzzed
// alphabet, so anchor and step ties are the common case, and one
// destination is reused for two differently sized tasks per input.
func FuzzHammingNNOrder(f *testing.F) {
	f.Add(uint8(2), uint16(40), uint8(3), int64(1))
	f.Add(uint8(5), uint16(300), uint8(1), int64(2))
	f.Add(uint8(0), uint16(7), uint8(255), int64(3))
	f.Fuzz(func(t *testing.T, widthSel uint8, size uint16, alphabet uint8, seed int64) {
		width := []int{2, 4, 8, 16, 32, 64}[int(widthSel)%6]
		rng := rand.New(rand.NewSource(seed))
		values := randWords(1+int(alphabet)%16, width, rng)
		draw := func(n int) []Pair {
			pairs := make([]Pair, n)
			for i := range pairs {
				pairs[i] = Pair{Weight: values[rng.Intn(len(values))], Input: values[rng.Intn(len(values))]}
			}
			return pairs
		}
		var dst Ordered
		n := int(size) % 301
		for _, m := range []int{n, n / 3} {
			pairs := draw(m)
			gotOrd, gotPerm := hammingNN(&dst, pairs, width)
			wantOrd, wantPerm := naiveHammingNN(pairs, width)
			if len(gotPerm) != len(wantPerm) || len(dst.Weights) != m {
				t.Fatalf("width %d n %d: %d-entry walk, reference %d", width, m, len(gotPerm), len(wantPerm))
			}
			for i := range wantPerm {
				if gotPerm[i] != wantPerm[i] || gotOrd[i] != wantOrd[i] {
					t.Fatalf("width %d n %d: perm %v, reference %v", width, m, gotPerm, wantPerm)
				}
			}
		}
	})
}

// TestAscendingAffiliatedOrderMatchesStableSort pins the packed-key sort to
// the stable-sort semantics it replaced: ascending weight popcount with
// original order preserved inside equal-count runs.
func TestAscendingAffiliatedOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 40; trial++ {
		width := []int{8, 32}[trial%2]
		n := 1 + rng.Intn(50)
		// Narrow value range forces many popcount ties.
		ws := make([]bitutil.Word, n)
		ins := make([]bitutil.Word, n)
		for i := range ws {
			ws[i] = bitutil.Word(rng.Uint64() & 0x7)
			ins[i] = bitutil.Word(rng.Uint64())
		}
		pairs := ZipPairs(ws, ins)
		counts := make([]int, n)
		wantPerm := make([]int, n)
		for i := range wantPerm {
			wantPerm[i] = i
			counts[i] = pairs[i].Weight.OnesCount(width)
		}
		sort.SliceStable(wantPerm, func(a, b int) bool { return counts[wantPerm[a]] < counts[wantPerm[b]] })
		ordered := orderPairs(AscendingAffiliatedOrder, pairs, width)
		for i := range wantPerm {
			if ordered[i] != pairs[wantPerm[i]] {
				t.Fatalf("width %d n %d: ordered[%d] %+v, stable reference pair %d %+v",
					width, n, i, ordered[i], wantPerm[i], pairs[wantPerm[i]])
			}
		}
	}
}

// TestPopcountOrdersMatchStableSort pins the counting-sort orderings to the
// comparison-sort semantics they replaced: sort.SliceStable over popcounts,
// descending for OrderDescending and AffiliatedOrder, ascending for
// AscendingAffiliatedOrder, at every lane width up to a full 64-bit word.
func TestPopcountOrdersMatchStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	stable := func(counts []int, less func(a, b int) bool) []int {
		perm := make([]int, len(counts))
		for i := range perm {
			perm[i] = i
		}
		sort.SliceStable(perm, func(a, b int) bool { return less(counts[perm[a]], counts[perm[b]]) })
		return perm
	}
	desc := func(a, b int) bool { return a > b }
	asc := func(a, b int) bool { return a < b }
	for trial := 0; trial < 120; trial++ {
		width := []int{1, 4, 8, 16, 32, 64}[trial%6]
		n := rng.Intn(200)
		ws, ins := randWords(n, width, rng), randWords(n, width, rng)
		if trial%2 == 0 {
			for i := range ws { // narrow values force long tie runs
				ws[i] &= 0x7
			}
		}
		pairs := ZipPairs(ws, ins)
		counts := Popcounts(ws, width)

		ordered, perm := OrderDescending(ws, width)
		want := stable(counts, desc)
		for i := range want {
			if perm[i] != want[i] || ordered[i] != ws[want[i]] {
				t.Fatalf("OrderDescending width %d n %d: perm %v, stable reference %v", width, n, perm, want)
			}
		}
		for _, c := range []struct {
			name  string
			order func(*Ordered, []bitutil.Word, []bitutil.Word, int)
			less  func(a, b int) bool
		}{
			{"AffiliatedOrder", AffiliatedOrder, desc},
			{"AscendingAffiliatedOrder", AscendingAffiliatedOrder, asc},
		} {
			ordered := orderPairs(c.order, pairs, width)
			want := stable(counts, c.less)
			if len(ordered) != n {
				t.Fatalf("%s width %d n %d: %d ordered pairs", c.name, width, n, len(ordered))
			}
			for i := range want {
				if ordered[i] != pairs[want[i]] {
					t.Fatalf("%s width %d n %d: ordered[%d] %+v, stable reference pair %d %+v",
						c.name, width, n, i, ordered[i], want[i], pairs[want[i]])
				}
			}
		}
	}
}

// TestRecoverPairsRejectsMalformedPartner: a partner table that is not a
// permutation of the pair positions must be an error. An out-of-range
// entry used to panic; a repeated one silently re-paired an input twice and
// dropped another.
func TestRecoverPairsRejectsMalformedPartner(t *testing.T) {
	five := make([]bitutil.Word, 5)
	big := make([]int, 600) // beyond the 512-entry stack bitmap
	for i := range big {
		big[i] = i
	}
	big[599] = 3
	for _, tc := range []struct {
		name    string
		partner []int
		want    string
	}{
		{"duplicate", []int{0, 0, 1, 2, 3}, "repeated"},
		{"out of range", []int{0, 1, 7, 2, 3}, "outside [0,5)"},
		{"negative", []int{0, 1, -1, 2, 3}, "outside [0,5)"},
		{"duplicate beyond stack bitmap", big, "repeated"},
	} {
		if err := CheckPartnerIndex(tc.partner); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckPartnerIndex(%v...) = %v, want error containing %q", tc.name, tc.partner[:5], err, tc.want)
		}
		if len(tc.partner) != 5 {
			continue
		}
		sep := Ordered{Weights: five, Inputs: five, PartnerIndex: tc.partner}
		if pairs, err := sep.RecoverPairs(); err == nil {
			t.Errorf("%s: RecoverPairs accepted %v, returned %v", tc.name, tc.partner, pairs)
		}
	}
	if err := CheckPartnerIndex([]int{4, 0, 3, 1, 2}); err != nil {
		t.Errorf("valid permutation rejected: %v", err)
	}
}
