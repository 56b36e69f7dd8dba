package dnn_test

import (
	"math"
	"math/rand"
	"testing"

	"nocbt/internal/dnn"
	"nocbt/internal/train"
)

// TestCloneTrainsLikeModel: an inference clone allocates its gradients on
// first use, and training it through train.NewTrainer moves the parameters
// bit for bit as train.TrainedLeNet moves an ordinary model's from the
// same start.
func TestCloneTrainsLikeModel(t *testing.T) {
	const seed, samples = 21, 40
	cfg := train.Config{Epochs: 2}
	want := train.TrainedLeNet(seed, samples, cfg)

	// TrainedLeNet's steps, with the trainer on a clone of the model.
	rng := rand.New(rand.NewSource(seed))
	m := dnn.LeNet(rng)
	clone := m.CloneForInference()
	ds := train.SyntheticDigits(samples, m.InShape, rng)
	train.NewTrainer(clone, cfg).Run(ds, rng)

	start := dnn.LeNet(rand.New(rand.NewSource(seed))).Params()
	moved := false
	for i, p := range clone.Params() {
		for j, v := range p.Data {
			if w := want.Params()[i].Data[j]; math.Float32bits(v) != math.Float32bits(w) {
				t.Fatalf("parameter %d[%d]: clone-trained %v, model-trained %v", i, j, v, w)
			}
			moved = moved || v != start[i].Data[j]
		}
	}
	if !moved {
		t.Fatal("training left every parameter at its initial value")
	}
}
