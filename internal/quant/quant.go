// Package quant implements symmetric fixed-point quantization: the 8-bit
// ("fixed-8") format used by the paper's second data-precision
// configuration, and its width-parameterized generalization (WidthParams)
// for the 2/4/16-bit mixed-precision lanes.
//
// Values are stored as two's-complement integers with a per-tensor scale:
//
//	real ≈ q × Scale, q ∈ [-QMax, QMax], QMax = 2^(bits-1) − 1
//
// The scale is chosen so the largest-magnitude value in the tensor maps to
// ±QMax (symmetric quantization, no zero-point). Two's complement matters for
// the paper's results: trained weights cluster near zero, so positive values
// have few '1' bits while negative values have many (sign-extension ones),
// which makes the popcount distribution bimodal and popcount ordering very
// effective (Tab. I: 55.71% BT reduction for trained fixed-8).
package quant

import (
	"fmt"
	"math"
)

// QMax is the largest quantized magnitude. Symmetric quantization uses
// [-127, 127] and never produces -128, keeping negation exact.
const QMax = 127

// Params holds the quantization parameters of one tensor.
type Params struct {
	// Scale converts a quantized integer back to the real domain:
	// real = q * Scale. Always > 0.
	Scale float32
}

// Choose returns quantization parameters covering vals: the scale maps the
// maximum absolute value onto QMax. An all-zero (or empty) input gets a
// scale of 1 so that quantization remains well defined.
func Choose(vals []float32) Params {
	maxAbs := float32(0)
	for _, v := range vals {
		a := float32(math.Abs(float64(v)))
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return Params{Scale: 1}
	}
	return Params{Scale: maxAbs / QMax}
}

// Quantize maps a real value to its int8 representation under p, rounding
// to nearest (ties away from zero) and saturating to ±QMax.
func (p Params) Quantize(v float32) int8 {
	if p.Scale <= 0 {
		panic(fmt.Sprintf("quant: non-positive scale %v", p.Scale))
	}
	q := math.Round(float64(v) / float64(p.Scale))
	if q > QMax {
		q = QMax
	} else if q < -QMax {
		q = -QMax
	}
	return int8(q)
}

// Dequantize maps a quantized value back to the real domain.
func (p Params) Dequantize(q int8) float32 {
	return float32(q) * p.Scale
}

// QuantizeSlice quantizes every element of vals.
func (p Params) QuantizeSlice(vals []float32) []int8 {
	out := make([]int8, len(vals))
	for i, v := range vals {
		out[i] = p.Quantize(v)
	}
	return out
}

// DequantizeSlice dequantizes every element of qs.
func (p Params) DequantizeSlice(qs []int8) []float32 {
	out := make([]float32, len(qs))
	for i, q := range qs {
		out[i] = p.Dequantize(q)
	}
	return out
}

// MaxError returns the worst-case absolute quantization error under p for
// values inside the covered range: half a quantization step.
func (p Params) MaxError() float32 {
	return p.Scale / 2
}

// DotQ computes the exact integer dot product Σ a[i]*b[i] in an int32
// accumulator. Because integer addition is associative, the result is
// independent of element order — the property that lets the accelerator
// consume affiliated-ordered packets without any de-ordering step.
func DotQ(a, b []int8) int32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("quant: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var acc int32
	for i := range a {
		acc += int32(a[i]) * int32(b[i])
	}
	return acc
}

// DotReal computes the real-domain value of a quantized dot product:
// (Σ qa*qb) × scaleA × scaleB. This is how the fixed-8 PE produces its
// partial sum: exact integer accumulation, one final rescale.
func DotReal(a, b []int8, pa, pb Params) float32 {
	return float32(DotQ(a, b)) * pa.Scale * pb.Scale
}

// Width-parameterized symmetric quantization: the generalization of the
// int8 path above to any lane width. real ≈ q × Scale with
// q ∈ [-QMaxFor(bits), QMaxFor(bits)]; at Bits == 8 every operation is
// bit-identical to the Params path (same scale choice, same rounding, same
// saturation), which is what keeps the paper's fixed-8 goldens byte-stable
// through the refactor.

// QMaxFor returns the largest quantized magnitude of a symmetric
// `bits`-wide two's-complement format: 2^(bits−1) − 1. The negative
// extreme −2^(bits−1) is never produced, keeping negation exact at every
// width. Returns 0 for non-positive or >32-bit widths.
func QMaxFor(bits int) int32 {
	if bits < 2 || bits > 32 {
		return 0
	}
	return int32(1)<<uint(bits-1) - 1
}

// WidthParams holds the quantization parameters of one tensor at a
// parameterized lane width.
type WidthParams struct {
	// Scale converts a quantized integer back to the real domain:
	// real = q * Scale. Always > 0.
	Scale float32
	// Bits is the two's-complement lane width (2..32).
	Bits int
}

// ChooseWidth returns `bits`-wide quantization parameters covering vals:
// the scale maps the maximum absolute value onto QMaxFor(bits). An
// all-zero (or empty) input gets a scale of 1, as in Choose. Unsupported
// widths are a configuration error, reported descriptively.
func ChooseWidth(vals []float32, bits int) (WidthParams, error) {
	qmax := QMaxFor(bits)
	if qmax == 0 {
		return WidthParams{}, fmt.Errorf("quant: unsupported lane width %d (want 2..32)", bits)
	}
	maxAbs := float32(0)
	for _, v := range vals {
		a := float32(math.Abs(float64(v)))
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return WidthParams{Scale: 1, Bits: bits}, nil
	}
	return WidthParams{Scale: maxAbs / float32(qmax), Bits: bits}, nil
}

// QMax returns the largest quantized magnitude at the params' width.
func (p WidthParams) QMax() int32 { return QMaxFor(p.Bits) }

// Quantize maps a real value to its integer representation under p,
// rounding to nearest (ties away from zero) and saturating to ±QMax —
// the same arithmetic as Params.Quantize at any width.
func (p WidthParams) Quantize(v float32) int32 {
	if p.Scale <= 0 {
		panic(fmt.Sprintf("quant: non-positive scale %v", p.Scale))
	}
	qmax := float64(p.QMax())
	q := math.Round(float64(v) / float64(p.Scale))
	if q > qmax {
		q = qmax
	} else if q < -qmax {
		q = -qmax
	}
	return int32(q)
}

// Dequantize maps a quantized value back to the real domain.
func (p WidthParams) Dequantize(q int32) float32 {
	return float32(q) * p.Scale
}

// QuantizeSlice quantizes every element of vals.
func (p WidthParams) QuantizeSlice(vals []float32) []int32 {
	out := make([]int32, len(vals))
	p.QuantizeInto(out, vals)
	return out
}

// QuantizeInto quantizes every element of vals into dst, which must be at
// least as long.
func (p WidthParams) QuantizeInto(dst []int32, vals []float32) {
	dst = dst[:len(vals)]
	for i, v := range vals {
		dst[i] = p.Quantize(v)
	}
}

// DequantizeSlice dequantizes every element of qs.
func (p WidthParams) DequantizeSlice(qs []int32) []float32 {
	out := make([]float32, len(qs))
	for i, q := range qs {
		out[i] = p.Dequantize(q)
	}
	return out
}

// MaxError returns the worst-case absolute quantization error under p for
// values inside the covered range: half a quantization step.
func (p WidthParams) MaxError() float32 {
	return p.Scale / 2
}

// DotQW computes the exact integer dot product Σ a[i]*b[i] in an int64
// accumulator — wide enough for 16-bit lanes, where per-pair products
// reach 2^30 and an int32 accumulator could overflow. Integer addition is
// associative, so the result is independent of element order at every
// width.
func DotQW(a, b []int32) int64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("quant: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var acc int64
	for i := range a {
		acc += int64(a[i]) * int64(b[i])
	}
	return acc
}
