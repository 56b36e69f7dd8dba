package nocbt

import (
	"context"
	"encoding/json"
	"testing"
)

// reverseID is a wire ID far from the built-ins, so this test's
// registration cannot collide with real strategies.
const reverseID = Ordering(100)

// registerReverseOnce registers the custom test strategy exactly once per
// process (the registry is global and tests may run in any order).
func registerReverseOnce(t *testing.T) {
	t.Helper()
	for _, s := range OrderingStrategies() {
		if s.ID() == reverseID {
			return
		}
	}
	err := RegisterOrderingStrategy(NewOrderingStrategy("reverse", reverseID, false, false,
		func(dst *Ordered, weights, inputs []Word, _ int) {
			n := len(weights)
			dst.Weights, dst.Inputs, dst.PartnerIndex = dst.Weights[:0], dst.Inputs[:0], nil
			for i := n - 1; i >= 0; i-- {
				dst.Weights = append(dst.Weights, weights[i])
				dst.Inputs = append(dst.Inputs, inputs[i])
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
}

// TestCustomStrategyEndToEnd is the acceptance scenario: a strategy
// registered by external code (here: reverse-order transmission, which
// preserves pairing and therefore results) flows through NewPlatform →
// engine → the experiment registry → JSON rendering, exactly like the
// paper's built-ins.
func TestCustomStrategyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs NoC inferences; skipped in -short mode")
	}
	registerReverseOnce(t)

	p, err := NewPlatform(WithOrdering(reverseID), WithLinkCoding("gray"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Ordering != reverseID || p.LinkCoding != "gray" {
		t.Fatalf("platform did not carry the custom axis: %+v", p)
	}
	if ord, err := ParseOrdering("reverse"); err != nil || ord != reverseID {
		t.Fatalf("ParseOrdering(reverse) = %d, %v", int(ord), err)
	}

	// Direct engine path: outputs must be bit-identical to O0 on the
	// fixed-8 exact integer datapath.
	model := LeNet(1)
	input := SampleInput(model, 3)
	base, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	wantEng, err := NewEngine(base, model.CloneForInference())
	if err != nil {
		t.Fatal(err)
	}
	want, err := wantEng.Infer(context.Background(), input)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, model.CloneForInference())
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Infer(context.Background(), input)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("custom strategy output[%d] = %v, O0 = %v", i, got.Data[i], want.Data[i])
		}
	}

	// Registry path: the sweep experiment measures the custom strategy and
	// renders it as JSON with its registered name.
	spec := SweepSpec{
		Platforms:  []NamedPlatform{FixedPlatform("custom-mesh", p)},
		Geometries: []Geometry{Fixed8()},
		Orderings:  []Ordering{O0, reverseID},
		Codings:    []string{"gray"},
		Models:     []SweepModel{LeNetModel},
		Seeds:      []int64{1},
	}
	res, err := RunExperiment(context.Background(), "sweep", Params{Sweep: &spec})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Render(res, JSON)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Result
	if err := json.Unmarshal([]byte(out), &decoded); err != nil {
		t.Fatalf("sweep JSON invalid: %v", err)
	}
	rows := decoded.Tables[0].Rows
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2:\n%s", len(rows), out)
	}
	// Columns: Platform, Topo, Model, Format, Prec, Ordering, Coding, ...
	if rows[1][5] != "reverse" || rows[1][6] != "gray" {
		t.Errorf("custom row ordering/coding = %v/%v, want reverse/gray", rows[1][5], rows[1][6])
	}
}
