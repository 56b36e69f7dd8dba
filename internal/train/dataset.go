// Package train produces genuinely trained DNN weights for the paper's
// "trained weights" experiments and provides the SGD machinery to do so.
//
// The paper uses LeNet trained on real data. That dataset is not available
// in this offline reproduction, so we substitute a procedurally generated
// digit-glyph classification task (SyntheticDigits in this file): 5×7
// LCD-style digit glyphs rendered into the model's input shape with random
// placement, brightness and noise. What the BT experiments consume is only the
// *bit-level distribution* of converged weights — small magnitudes
// concentrated near zero — which any converged digit classifier exhibits.
package train

import (
	"fmt"
	"math/rand"

	"nocbt/internal/tensor"
)

// glyphRows holds a 5×7 pixel font for the digits 0-9. Each entry is seven
// rows of five bits, MSB = leftmost pixel.
var glyphRows = [10][7]uint8{
	{0b01110, 0b10001, 0b10011, 0b10101, 0b11001, 0b10001, 0b01110}, // 0
	{0b00100, 0b01100, 0b00100, 0b00100, 0b00100, 0b00100, 0b01110}, // 1
	{0b01110, 0b10001, 0b00001, 0b00010, 0b00100, 0b01000, 0b11111}, // 2
	{0b11111, 0b00010, 0b00100, 0b00010, 0b00001, 0b10001, 0b01110}, // 3
	{0b00010, 0b00110, 0b01010, 0b10010, 0b11111, 0b00010, 0b00010}, // 4
	{0b11111, 0b10000, 0b11110, 0b00001, 0b00001, 0b10001, 0b01110}, // 5
	{0b00110, 0b01000, 0b10000, 0b11110, 0b10001, 0b10001, 0b01110}, // 6
	{0b11111, 0b00001, 0b00010, 0b00100, 0b01000, 0b01000, 0b01000}, // 7
	{0b01110, 0b10001, 0b10001, 0b01110, 0b10001, 0b10001, 0b01110}, // 8
	{0b01110, 0b10001, 0b10001, 0b01111, 0b00001, 0b00010, 0b01100}, // 9
}

// glyphCols and glyphLines are the font cell dimensions.
const (
	glyphCols  = 5
	glyphLines = 7
)

// Sample is one labelled training example.
type Sample struct {
	Image *tensor.Tensor // CHW
	Label int            // digit 0-9
}

// Dataset is a labelled sample collection.
type Dataset struct {
	Samples []Sample
	// Classes is the number of distinct labels (always 10 here).
	Classes int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// Shuffle permutes the samples in place.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	rng.Shuffle(len(d.Samples), func(i, j int) {
		d.Samples[i], d.Samples[j] = d.Samples[j], d.Samples[i]
	})
}

// SyntheticDigits renders n random digit samples with the given CHW shape.
// Channels beyond the first receive independently tinted copies of the
// glyph, so 3-channel models (DarkNet) see colour variation. Labels cycle
// through the 10 digits so every class is represented evenly.
func SyntheticDigits(n int, shape []int, rng *rand.Rand) *Dataset {
	if len(shape) != 3 {
		panic(fmt.Sprintf("train: SyntheticDigits wants CHW shape, got %v", shape))
	}
	c, h, w := shape[0], shape[1], shape[2]
	if h < glyphLines || w < glyphCols {
		panic(fmt.Sprintf("train: image %dx%d smaller than glyph cell", h, w))
	}
	ds := &Dataset{Samples: make([]Sample, 0, n), Classes: 10}
	for i := 0; i < n; i++ {
		label := i % 10
		ds.Samples = append(ds.Samples, Sample{
			Image: renderDigit(label, c, h, w, rng),
			Label: label,
		})
	}
	return ds
}

// renderDigit draws one digit glyph scaled into an h×w image with random
// placement, per-channel tint, brightness jitter and additive noise.
func renderDigit(digit, c, h, w int, rng *rand.Rand) *tensor.Tensor {
	img := tensor.New(c, h, w)

	// Scale the glyph to fill 50-90% of the image, preserving cell aspect.
	frac := 0.5 + 0.4*rng.Float64()
	cellH := int(float64(h) * frac / glyphLines)
	cellW := int(float64(w) * frac / glyphCols)
	if cellH < 1 {
		cellH = 1
	}
	if cellW < 1 {
		cellW = 1
	}
	gh, gw := cellH*glyphLines, cellW*glyphCols
	maxOffY, maxOffX := h-gh, w-gw
	offY, offX := 0, 0
	if maxOffY > 0 {
		offY = rng.Intn(maxOffY + 1)
	}
	if maxOffX > 0 {
		offX = rng.Intn(maxOffX + 1)
	}

	brightness := 0.7 + 0.3*rng.Float32()
	tints := make([]float32, c)
	for ch := range tints {
		tints[ch] = 0.5 + 0.5*rng.Float32()
	}

	for line := 0; line < glyphLines; line++ {
		rowBits := glyphRows[digit][line]
		for col := 0; col < glyphCols; col++ {
			if rowBits>>(glyphCols-1-col)&1 == 0 {
				continue
			}
			for dy := 0; dy < cellH; dy++ {
				for dx := 0; dx < cellW; dx++ {
					y, x := offY+line*cellH+dy, offX+col*cellW+dx
					for ch := 0; ch < c; ch++ {
						img.Set(brightness*tints[ch], ch, y, x)
					}
				}
			}
		}
	}

	// Additive Gaussian noise over the whole image.
	const noiseStd = 0.05
	for i := range img.Data {
		v := img.Data[i] + noiseStd*float32(rng.NormFloat64())
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		img.Data[i] = v
	}
	return img
}
