package flit

import (
	"math/rand"
	"reflect"
	"testing"

	"nocbt/internal/bitutil"
)

// FlitizeInto and DeflitizeInto pack and unpack lanes word by word. The
// functions below are the field-by-field loops they replaced, kept as the
// bit-for-bit reference: every lane goes through Vec.SetField / Vec.Field
// at its bit offset, with the rank-to-(flit, slot) placement computed by
// division per pair.

// refPack lays the ordered columns and the bias into fresh data flits.
func refPack(g Geometry, ord *Ordered, bias bitutil.Word, interleave bool) []bitutil.Vec {
	n := len(ord.Weights)
	half := g.HalfLanes()
	m := g.DataFlitCount(n)
	lb := g.LaneBits()
	data := make([]bitutil.Vec, m)
	for i := range data {
		data[i] = bitutil.NewVec(g.LinkBits)
	}
	for r := 0; r < n; r++ {
		var fl, slot int
		if interleave {
			fl, slot = r%m, r/m
		} else {
			fl, slot = r/half, r%half
		}
		data[fl].SetField(slot*lb, lb, uint64(ord.Inputs[r]))
		data[fl].SetField((half+slot)*lb, lb, uint64(ord.Weights[r]))
	}
	data[m-1].SetField((g.Lanes()-1)*lb, lb, uint64(bias))
	return data
}

// refUnpack reads an n-pair task back, re-pairing through partner when it
// is non-nil.
func refUnpack(g Geometry, data []bitutil.Vec, n int, interleave bool, partner []int) Task {
	half := g.HalfLanes()
	m := g.DataFlitCount(n)
	lb := g.LaneBits()
	out := Task{Inputs: make([]bitutil.Word, n), Weights: make([]bitutil.Word, n)}
	for r := 0; r < n; r++ {
		var fl, slot int
		if interleave {
			fl, slot = r%m, r/m
		} else {
			fl, slot = r/half, r%half
		}
		in := r
		if partner != nil {
			in = partner[r]
		}
		out.Inputs[in] = bitutil.Word(data[fl].Field(slot*lb, lb))
		out.Weights[r] = bitutil.Word(data[fl].Field((half+slot)*lb, lb))
	}
	out.Bias = bitutil.Word(data[m-1].Field((g.Lanes()-1)*lb, lb))
	return out
}

// oracleTask is an n-pair task of full 64-bit random words, so lane masking
// is exercised too.
func oracleTask(n int, rng *rand.Rand) Task {
	t := Task{Inputs: make([]bitutil.Word, n), Weights: make([]bitutil.Word, n), Bias: bitutil.Word(rng.Uint64())}
	for i := 0; i < n; i++ {
		t.Inputs[i] = bitutil.Word(rng.Uint64())
		t.Weights[i] = bitutil.Word(rng.Uint64())
	}
	return t
}

// checkPackingOracle flitizes t through FlitizeInto (into out, which may
// hold an earlier packet's scratch) and through the reference, and fails on
// the first differing data flit, index flit, partner entry or decoded
// value.
func checkPackingOracle(t *testing.T, g Geometry, s OrderingStrategy, task Task, inBand bool, pool *Pool, out *Flitized) {
	t.Helper()
	n := len(task.Weights)
	opt := Options{Ordering: s.ID(), InBandIndex: inBand}
	if err := FlitizeInto(g, task, opt, pool, out); err != nil {
		t.Fatalf("%v %s n=%d: %v", g, s.Name(), n, err)
	}
	var ord Ordered
	s.Order(&ord, task.Weights, task.Inputs, g.LaneBits())
	want := refPack(g, &ord, task.Bias, s.Interleave())
	if len(out.Data) != len(want) {
		t.Fatalf("%v %s n=%d: %d data flits, reference %d", g, s.Name(), n, len(out.Data), len(want))
	}
	for i := range want {
		if !out.Data[i].Equal(want[i]) {
			t.Fatalf("%v %s n=%d in-band=%v: data flit %d\n got %v\nwant %v", g, s.Name(), n, inBand, i, out.Data[i], want[i])
		}
	}
	if !reflect.DeepEqual(out.PartnerIndex, ord.PartnerIndex) {
		t.Fatalf("%v %s n=%d: partner table %v, reference %v", g, s.Name(), n, out.PartnerIndex, ord.PartnerIndex)
	}
	var wantIndex []bitutil.Vec
	if inBand && ord.PartnerIndex != nil {
		wantIndex = EncodePartnerIndex(g, ord.PartnerIndex)
	}
	if len(out.Index) != len(wantIndex) {
		t.Fatalf("%v %s n=%d: %d index flits, reference %d", g, s.Name(), n, len(out.Index), len(wantIndex))
	}
	for i := range wantIndex {
		if !out.Index[i].Equal(wantIndex[i]) {
			t.Fatalf("%v %s n=%d: index flit %d differs from the reference", g, s.Name(), n, i)
		}
	}

	var got Task
	if err := DeflitizeInto(g, out.Data, n, s.ID(), out.PartnerIndex, &got); err != nil {
		t.Fatalf("%v %s n=%d: deflitize: %v", g, s.Name(), n, err)
	}
	ref := refUnpack(g, want, n, s.Interleave(), ord.PartnerIndex)
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("%v %s n=%d: deflitized task differs from the reference\n got %+v\nwant %+v", g, s.Name(), n, got, ref)
	}
	if pool != nil {
		for _, v := range out.Data {
			pool.PutVec(v)
		}
		for _, v := range out.Index {
			pool.PutVec(v)
		}
	}
}

// oracleGeometries covers every lane format on the paper's link widths and
// on a 192-bit link, whose three backing words exercise lanes in a middle
// word.
func oracleGeometries(t testing.TB) []Geometry {
	var gs []Geometry
	for _, f := range bitutil.Formats() {
		for _, link := range []int{128, 192, 512} {
			g, err := NewGeometry(link, f)
			if err != nil {
				t.Fatalf("%d-bit %v: %v", link, f, err)
			}
			gs = append(gs, g)
		}
	}
	return gs
}

// TestPackingMatchesFieldOracle pins word-level lane packing to the
// SetField/Field loops for every lane format × every registered ordering ×
// task sizes around the flit boundaries × in-band and out-of-band index,
// reusing one Flitized and one pool throughout as the engine does.
func TestPackingMatchesFieldOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, g := range oracleGeometries(t) {
		half := g.HalfLanes()
		pool := NewPool(g.LinkBits)
		var out Flitized
		for _, s := range OrderingStrategies() {
			for _, n := range []int{1, half - 1, half, half + 1, 64, 65, 200} {
				if n < 1 {
					continue
				}
				for _, inBand := range []bool{false, true} {
					checkPackingOracle(t, g, s, oracleTask(n, rng), inBand, pool, &out)
				}
			}
		}
	}
}

// FuzzPackingOracle explores the same equivalence over random geometries,
// orderings, task sizes and index modes.
func FuzzPackingOracle(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(2), uint16(25), false)
	f.Add(int64(2), uint8(2), uint8(0), uint16(1), true)
	f.Add(int64(3), uint8(14), uint8(4), uint16(200), true)
	f.Fuzz(func(t *testing.T, seed int64, geom, ordering uint8, n uint16, inBand bool) {
		gs := oracleGeometries(t)
		g := gs[int(geom)%len(gs)]
		ss := OrderingStrategies()
		s := ss[int(ordering)%len(ss)]
		rng := rand.New(rand.NewSource(seed))
		var out Flitized
		checkPackingOracle(t, g, s, oracleTask(1+int(n)%300, rng), inBand, nil, &out)
	})
}

// TestLaneWidthsDivideWord pins the invariant word-level packing rests on:
// every lane format's width divides 64, so a lane starting at a multiple of
// its width never straddles a backing word.
func TestLaneWidthsDivideWord(t *testing.T) {
	for _, f := range bitutil.Formats() {
		if b := f.Bits(); b <= 0 || 64%b != 0 {
			t.Errorf("format %v is %d bits wide, which does not divide 64", f, b)
		}
	}
}
