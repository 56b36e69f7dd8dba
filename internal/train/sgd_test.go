package train

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"nocbt/internal/dnn"
	"nocbt/internal/tensor"
)

// paramDigest is the sha256 of every parameter's float32 bits, little
// endian, in Params order.
func paramDigest(m *dnn.Model) string {
	h := sha256.New()
	var buf [4]byte
	for _, p := range m.Params() {
		for _, v := range p.Data {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainedWeightsPinned holds two short training runs to the parameter
// digests of the direct-loop conv kernels and the pass-per-operation SGD
// update they were rewritten from, so any change to the float32 operation
// order of training shows here. The LeNet run covers weight decay; the
// DarkNet run covers pad-1 and 1×1 convolutions. Like bench/digests.json,
// the pins hold for amd64 builds: other architectures may fuse a multiply
// and add.
func TestTrainedWeightsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64, not %s", runtime.GOARCH)
	}
	for _, tc := range []struct {
		name  string
		train func() *dnn.Model
		want  string
	}{
		{"lenet-decay", func() *dnn.Model {
			return TrainedLeNet(3, 40, Config{LR: 0.002, Epochs: 2, WeightDecay: 5e-4})
		}, "a44c4087bf93fb1310132503b4cf03d9634a2a29ee2cdadf86f1acdaa0b35e72"},
		{"darknet", func() *dnn.Model {
			return TrainedDarkNet(2, 8, Config{LR: 0.002, Epochs: 1})
		}, "c1f01f28f953a36c4ef866f64b56193ee138271832bb49d06a982dc38dccfbde"},
	} {
		if got := paramDigest(tc.train()); got != tc.want {
			t.Errorf("%s: trained parameters digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestStepMatchesTensorOps runs Trainer.Step next to the update it fuses,
// written as the separate tensor passes, and requires bit-identical
// parameters and velocities after every step.
func TestStepMatchesTensorOps(t *testing.T) {
	for _, decay := range []float32{0, 5e-3} {
		cfg := Config{LR: 0.05, Momentum: 0.9, WeightDecay: decay}
		m := tinyModel(rand.New(rand.NewSource(13)))
		ref := tinyModel(rand.New(rand.NewSource(13)))
		tr := NewTrainer(m, cfg)
		var vel []*tensor.Tensor
		for _, p := range ref.Params() {
			vel = append(vel, tensor.New(p.Shape()...))
		}
		ds := SyntheticDigits(6, m.InShape, rand.New(rand.NewSource(14)))
		for step, s := range ds.Samples {
			tr.Step(s)

			out := ref.Forward(s.Image)
			_, grad := SoftmaxCrossEntropy(out, s.Label)
			ref.ZeroGrads()
			ref.Backward(grad)
			grads := ref.Grads()
			for i, p := range ref.Params() {
				v := vel[i]
				v.Scale(cfg.Momentum)
				v.AddScaled(grads[i], -cfg.LR)
				if cfg.WeightDecay != 0 {
					v.AddScaled(p, -cfg.LR*cfg.WeightDecay)
				}
				p.AddScaled(v, 1)
			}

			for i, p := range ref.Params() {
				for name, pair := range map[string][2]*tensor.Tensor{
					"param":    {m.Params()[i], p},
					"velocity": {tr.velocity[i], vel[i]},
				} {
					for j := range pair[1].Data {
						if g, w := math.Float32bits(pair[0].Data[j]), math.Float32bits(pair[1].Data[j]); g != w {
							t.Fatalf("decay %g step %d: %s %d[%d] = %#08x, tensor ops %#08x",
								decay, step, name, i, j, g, w)
						}
					}
				}
			}
		}
	}
}

// BenchmarkTrainLeNet is the profiling entry for training: the run
// nocbt.TrainedLeNet makes (300 samples, 8 epochs, lr 0.002).
func BenchmarkTrainLeNet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TrainedLeNet(1, 300, Config{LR: 0.002, Epochs: 8})
	}
}
