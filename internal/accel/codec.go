package accel

import (
	"fmt"
	"slices"

	"nocbt/internal/bitutil"
	"nocbt/internal/quant"
)

// codec encodes one layer's values into lane words for the layer's lane
// format. It owns the layer's quantization registers (fixed-point modes):
// the scales are per-layer codec state that travels with the layer's
// packets — never engine-global registers — so concurrently in-flight
// layers cannot clobber each other.
type codec struct {
	bits int // lane width in fixed-point modes, 0 otherwise
	// wq, xq and bq are the quantized weights, activations and biases of
	// fixed-point modes, each already its lane word (FixedWord).
	wq, xq  []int32
	bq      []int32
	weights []float32
	acts    []float32
	biases  []float32

	// scaleWX and scaleB are the PE configuration registers for this layer
	// (fixed-point modes only), distributed out-of-band as layer
	// configuration.
	scaleWX float32
	scaleB  float32
}

// layerWeights is one fixed-point NoC layer's quantized weights and
// biases, in engine-owned buffers: the first dispatch of the layer in a
// call quantizes them, and every flow of the call shares them. Weights are
// read again in every call, so a caller that changes them between calls
// sees the change.
type layerWeights struct {
	call           uint64 // the call that last quantized them
	wq, bq         []int32
	scaleW, scaleB float32
}

// newCodec builds the codec of the engine's NoC layer idx at format. In
// fixed-point modes the weights and biases come from the layer's
// layerWeights, quantized once per call, and the activations are
// quantized into the call's activation slab.
func (e *Engine) newCodec(idx int, format bitutil.Format, weights, acts, biases []float32) (codec, error) {
	c := codec{weights: weights, acts: acts, biases: biases}
	if !format.IsFixed() {
		if err := format.Valid(); err != nil {
			return codec{}, fmt.Errorf("accel: %w", err)
		}
		return c, nil
	}
	c.bits = format.Bits()
	if e.weights == nil {
		e.weights = make([]layerWeights, len(e.layerFormats))
	}
	lw := &e.weights[idx]
	if lw.call != e.call {
		wp, err := quant.ChooseWidth(weights, c.bits)
		if err != nil {
			return codec{}, fmt.Errorf("accel: %w", err)
		}
		bp, err := quant.ChooseWidth(biases, c.bits)
		if err != nil {
			return codec{}, fmt.Errorf("accel: %w", err)
		}
		lw.wq = slices.Grow(lw.wq[:0], len(weights))[:len(weights)]
		lw.bq = slices.Grow(lw.bq[:0], len(biases))[:len(biases)]
		wp.QuantizeInto(lw.wq, weights)
		bp.QuantizeInto(lw.bq, biases)
		toLaneWords(lw.wq, c.bits)
		toLaneWords(lw.bq, c.bits)
		lw.scaleW, lw.scaleB, lw.call = wp.Scale, bp.Scale, e.call
	}
	xp, err := quant.ChooseWidth(acts, c.bits)
	if err != nil {
		return codec{}, fmt.Errorf("accel: %w", err)
	}
	c.xq = e.actSlab.take(len(acts))
	xp.QuantizeInto(c.xq, acts)
	toLaneWords(c.xq, c.bits)
	c.wq, c.bq = lw.wq, lw.bq
	c.scaleWX = lw.scaleW * xp.Scale
	c.scaleB = lw.scaleB
	return c, nil
}

// toLaneWords replaces each quantized value of q with its bits-wide lane
// word, so encoding a value is one load.
func toLaneWords(q []int32, bits int) {
	for i, v := range q {
		q[i] = int32(bitutil.FixedWord(v, bits))
	}
}

func (c *codec) fixed() bool { return c.bits != 0 }

func (c *codec) weightWord(i int) bitutil.Word {
	if c.fixed() {
		return bitutil.Word(uint32(c.wq[i]))
	}
	return bitutil.Float32Word(c.weights[i])
}

func (c *codec) actWord(i int) bitutil.Word {
	if c.fixed() {
		return bitutil.Word(uint32(c.xq[i]))
	}
	return bitutil.Float32Word(c.acts[i])
}

func (c *codec) biasWord(i int) bitutil.Word {
	if c.fixed() {
		return bitutil.Word(uint32(c.bq[i]))
	}
	return bitutil.Float32Word(c.biases[i])
}
