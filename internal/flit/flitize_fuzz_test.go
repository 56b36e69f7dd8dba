package flit

import (
	"math/rand"
	"testing"
)

// FuzzFlitizeDeflitize drives random tasks through every registered
// ordering strategy on both paper geometries and checks the receiver-side
// recovery invariants: the bias survives, the (weight, input) pairing is
// preserved (dot-product identity), and the baseline ordering round-trips
// the exact sequence. Any ordering whose partner table fails to restore
// pairing corrupts MAC results silently, which is why this runs under fuzz
// rather than a fixed size sweep only.
//
// A non-zero mangle corrupts the partner table before decoding (1: one
// entry out of range, 2: one entry repeated); partner-emitting strategies
// must then reject the packet instead of panicking or mis-pairing.
func FuzzFlitizeDeflitize(f *testing.F) {
	f.Add(uint64(1), 8, false, uint8(0))
	f.Add(uint64(2), 25, true, uint8(0)) // LeNet conv1 task shape, in-band index
	f.Add(uint64(3), 1, false, uint8(0)) // single pair: bias shares the only data flit
	f.Add(uint64(4), 150, true, uint8(0))
	f.Add(uint64(5), 9, false, uint8(0)) // one pair past a flit boundary
	f.Add(uint64(6), 5, true, uint8(1))  // 3-bit index entries can decode as 5..7
	f.Add(uint64(7), 5, false, uint8(2)) // a repeated entry used to mis-pair silently
	f.Fuzz(func(t *testing.T, seed uint64, n int, inBand bool, mangle uint8) {
		if n < 0 {
			n = -n
		}
		n = n%300 + 1
		rng := rand.New(rand.NewSource(int64(seed)))
		task := randTask(n, rng)
		want := taskDot(task)
		for _, g := range []Geometry{paperFixed8, paperFloat32} {
			for _, s := range OrderingStrategies() {
				ord := s.ID()
				fz, err := Flitize(g, task, Options{Ordering: ord, InBandIndex: inBand})
				if err != nil {
					t.Fatalf("%s %s n=%d: flitize: %v", g, s.Name(), n, err)
				}
				if mangle%3 != 0 && fz.PartnerIndex != nil && n > 1 {
					bad := mangled(fz.PartnerIndex, mangle%3, rng)
					if got, err := Deflitize(g, fz.Data, n, ord, bad); err == nil {
						t.Fatalf("%s %s n=%d: malformed partner table %v accepted, decoded %v", g, s.Name(), n, bad, got)
					}
					continue
				}
				got, err := Deflitize(g, fz.Data, n, ord, fz.PartnerIndex)
				if err != nil {
					t.Fatalf("%s %s n=%d: deflitize: %v", g, s.Name(), n, err)
				}
				if got.Bias != task.Bias {
					t.Fatalf("%s %s n=%d: bias %#x, want %#x", g, s.Name(), n, got.Bias, task.Bias)
				}
				if len(got.Inputs) != n || len(got.Weights) != n {
					t.Fatalf("%s %s n=%d: recovered %d inputs / %d weights", g, s.Name(), n, len(got.Inputs), len(got.Weights))
				}
				if gotDot := taskDot(got); gotDot != want {
					t.Fatalf("%s %s n=%d: pairing broken, dot %d, want %d", g, s.Name(), n, gotDot, want)
				}
				if ord == Baseline {
					for i := range task.Inputs {
						if got.Inputs[i] != task.Inputs[i] || got.Weights[i] != task.Weights[i] {
							t.Fatalf("%s n=%d: baseline order not preserved at %d", g, n, i)
						}
					}
				}
			}
		}
	})
}

// mangled returns a copy of partner with one entry corrupted: kind 1 puts
// it out of range, kind 2 repeats another entry.
func mangled(partner []int, kind uint8, rng *rand.Rand) []int {
	bad := append([]int(nil), partner...)
	n := len(bad)
	i := rng.Intn(n)
	if kind == 1 {
		bad[i] = n + rng.Intn(n)
	} else {
		bad[i] = bad[(i+1+rng.Intn(n-1))%n]
	}
	return bad
}
