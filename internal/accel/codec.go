package accel

import (
	"fmt"

	"nocbt/internal/bitutil"
	"nocbt/internal/quant"
)

// codec encodes one layer's values into lane words for the layer's lane
// format. It owns the layer's quantization registers (fixed-point modes):
// the scales are per-layer codec state that travels with the layer's
// packets — never engine-global registers — so concurrently in-flight
// layers cannot clobber each other.
type codec struct {
	format  bitutil.Format
	bits    int     // lane width (fixed-point modes)
	wq, xq  []int32 // quantized weights/activations (fixed-point modes)
	bq      []int32 // quantized biases
	weights []float32
	acts    []float32
	biases  []float32

	// scaleWX and scaleB are the PE configuration registers for this layer
	// (fixed-point modes only), distributed out-of-band as layer
	// configuration.
	scaleWX float32
	scaleB  float32
}

func newCodec(format bitutil.Format, weights, acts, biases []float32) (codec, error) {
	c := codec{format: format, weights: weights, acts: acts, biases: biases}
	if format.IsFixed() {
		c.bits = format.Bits()
		wp, err := quant.ChooseWidth(weights, c.bits)
		if err != nil {
			return codec{}, fmt.Errorf("accel: %w", err)
		}
		xp, err := quant.ChooseWidth(acts, c.bits)
		if err != nil {
			return codec{}, fmt.Errorf("accel: %w", err)
		}
		bp, err := quant.ChooseWidth(biases, c.bits)
		if err != nil {
			return codec{}, fmt.Errorf("accel: %w", err)
		}
		c.wq = wp.QuantizeSlice(weights)
		c.xq = xp.QuantizeSlice(acts)
		c.bq = bp.QuantizeSlice(biases)
		c.scaleWX = wp.Scale * xp.Scale
		c.scaleB = bp.Scale
	} else if err := format.Valid(); err != nil {
		return codec{}, fmt.Errorf("accel: %w", err)
	}
	return c, nil
}

func (c *codec) fixed() bool { return c.format.IsFixed() }

func (c *codec) weightWord(i int) bitutil.Word {
	if c.fixed() {
		return bitutil.FixedWord(c.wq[i], c.bits)
	}
	return bitutil.Float32Word(c.weights[i])
}

func (c *codec) actWord(i int) bitutil.Word {
	if c.fixed() {
		return bitutil.FixedWord(c.xq[i], c.bits)
	}
	return bitutil.Float32Word(c.acts[i])
}

func (c *codec) biasWord(i int) bitutil.Word {
	if c.fixed() {
		return bitutil.FixedWord(c.bq[i], c.bits)
	}
	return bitutil.Float32Word(c.biases[i])
}
