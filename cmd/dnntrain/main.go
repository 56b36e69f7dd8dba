// Command dnntrain trains LeNet (or the DarkNet-like model) on the
// synthetic digit-glyph dataset and reports per-epoch loss/accuracy plus
// the bit-level weight statistics the BT experiments consume.
//
// Usage:
//
//	dnntrain [-model lenet|darknet] [-samples 300] [-epochs 8] [-lr 0.002] [-seed 1]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"

	"nocbt/internal/bitutil"
	"nocbt/internal/dnn"
	"nocbt/internal/quant"
	"nocbt/internal/stats"
	"nocbt/internal/train"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dnntrain:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dnntrain", flag.ContinueOnError)
	modelName := fs.String("model", "lenet", "lenet or darknet")
	samples := fs.Int("samples", 300, "training samples")
	epochs := fs.Int("epochs", 8, "training epochs")
	lr := fs.Float64("lr", 0.002, "learning rate (finite, > 0)")
	seed := fs.Int64("seed", 1, "init/dataset seed")
	holdout := fs.Int("holdout", 200, "holdout samples for the final accuracy")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; a help request is not a failure
		}
		return err
	}
	if *samples < 1 || *epochs < 1 || *holdout < 1 {
		return fmt.Errorf("-samples, -epochs and -holdout must be >= 1 (got %d, %d, %d)",
			*samples, *epochs, *holdout)
	}
	// train.Config reads a zero LR as "use the default", so 0 must be
	// rejected here rather than silently train at another rate.
	if lr32 := float32(*lr); !(lr32 > 0) || math.IsInf(float64(lr32), 0) {
		return fmt.Errorf("-lr must be a finite positive float32 (got %g)", *lr)
	}

	rng := rand.New(rand.NewSource(*seed))
	var model *dnn.Model
	switch *modelName {
	case "lenet":
		model = dnn.LeNet(rng)
	case "darknet":
		model = dnn.DarkNetTiny(rng)
	default:
		return fmt.Errorf("unknown model %q", *modelName)
	}
	fmt.Fprintf(stdout, "%s: %d parameters, input %v\n", model.Name(), model.ParamCount(), model.InShape)

	ds := train.SyntheticDigits(*samples, model.InShape, rng)
	trainer := train.NewTrainer(model, train.Config{LR: float32(*lr), Epochs: *epochs})
	for e := 0; e < *epochs; e++ {
		st := trainer.Epoch(ds, rng)
		fmt.Fprintf(stdout, "epoch %2d: loss %.4f, accuracy %.2f\n", e+1, st.MeanLoss, st.Accuracy)
	}
	eval := train.SyntheticDigits(*holdout, model.InShape, rng)
	fmt.Fprintf(stdout, "holdout accuracy: %.2f\n", train.Evaluate(model, eval))

	// Bit-level summary of the trained weights (per-layer fixed-8).
	var qs []int8
	for _, layer := range model.LayerWeightSlices() {
		qs = append(qs, quant.Choose(layer).QuantizeSlice(layer)...)
	}
	words := bitutil.Fixed8Words(qs)
	dist := stats.BitDist(words, 8)
	fmt.Fprintln(stdout, "\nfixed-8 weight bit distribution (MSB first):")
	labels := make([]string, 8)
	for i := range labels {
		labels[i] = fmt.Sprintf("bit %d", 7-i)
	}
	io.WriteString(stdout, stats.RenderBars(labels, dist.MSBFirst(), 1, 40))
	return nil
}
