package dnn

import (
	"math"
	"math/rand"
	"testing"

	"nocbt/internal/tensor"
)

func TestConv2DForwardKnown(t *testing.T) {
	// 1 input channel, 1 output channel, 2x2 kernel of all ones, no pad.
	c := NewConv2D(1, 1, 2, 1, 0, rand.New(rand.NewSource(1)))
	c.W.Fill(1)
	c.B.Data[0] = 0.5
	x := tensor.FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	out := c.Forward(x)
	want := []float32{
		1 + 2 + 4 + 5 + 0.5, 2 + 3 + 5 + 6 + 0.5,
		4 + 5 + 7 + 8 + 0.5, 5 + 6 + 8 + 9 + 0.5,
	}
	if out.Dim(1) != 2 || out.Dim(2) != 2 {
		t.Fatalf("output shape %v, want [1 2 2]", out.Shape())
	}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("out[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
}

func TestConv2DForwardPadding(t *testing.T) {
	c := NewConv2D(1, 1, 3, 1, 1, rand.New(rand.NewSource(1)))
	c.W.Fill(1)
	c.B.Fill(0)
	x := tensor.New(1, 2, 2)
	x.Fill(1)
	out := c.Forward(x)
	if out.Dim(1) != 2 || out.Dim(2) != 2 {
		t.Fatalf("padded output shape %v, want [1 2 2]", out.Shape())
	}
	// Corner output covers only the 2x2 in-bounds region.
	if got := out.At(0, 0, 0); got != 4 {
		t.Errorf("corner = %v, want 4", got)
	}
}

func TestConv2DForwardStride(t *testing.T) {
	c := NewConv2D(1, 1, 2, 2, 0, rand.New(rand.NewSource(1)))
	c.W.Fill(1)
	c.B.Fill(0)
	x := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	out := c.Forward(x)
	if out.Dim(1) != 2 || out.Dim(2) != 2 {
		t.Fatalf("strided output shape %v", out.Shape())
	}
	if got := out.At(0, 0, 0); got != 1+2+5+6 {
		t.Errorf("out(0,0) = %v, want 14", got)
	}
	if got := out.At(0, 1, 1); got != 11+12+15+16 {
		t.Errorf("out(1,1) = %v, want 54", got)
	}
}

func TestConv2DMultiChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewConv2D(2, 3, 2, 1, 0, rng)
	x := tensor.New(2, 3, 3)
	x.Uniform(-1, 1, rng)
	out := c.Forward(x)
	if out.Dim(0) != 3 || out.Dim(1) != 2 || out.Dim(2) != 2 {
		t.Fatalf("multi-channel output shape %v, want [3 2 2]", out.Shape())
	}
	// Reference computation for one output element.
	oc, oy, ox := 1, 1, 0
	want := c.B.Data[oc]
	for ic := 0; ic < 2; ic++ {
		for ky := 0; ky < 2; ky++ {
			for kx := 0; kx < 2; kx++ {
				want += c.W.At(oc, ic, ky, kx) * x.At(ic, oy+ky, ox+kx)
			}
		}
	}
	if got := out.At(oc, oy, ox); math.Abs(float64(got-want)) > 1e-5 {
		t.Errorf("out(%d,%d,%d) = %v, want %v", oc, oy, ox, got, want)
	}
}

func TestConv2DOutSize(t *testing.T) {
	tests := []struct {
		k, s, p      int
		h, w         int
		wantH, wantW int
	}{
		{5, 1, 0, 32, 32, 28, 28}, // LeNet conv1
		{5, 1, 0, 14, 14, 10, 10}, // LeNet conv2
		{3, 1, 1, 64, 64, 64, 64}, // DarkNet same-pad
		{3, 2, 1, 8, 8, 4, 4},
	}
	for _, tt := range tests {
		c := NewConv2D(1, 1, tt.k, tt.s, tt.p, rand.New(rand.NewSource(1)))
		oh, ow := c.OutSize(tt.h, tt.w)
		if oh != tt.wantH || ow != tt.wantW {
			t.Errorf("k%d s%d p%d on %dx%d: got %dx%d, want %dx%d",
				tt.k, tt.s, tt.p, tt.h, tt.w, oh, ow, tt.wantH, tt.wantW)
		}
	}
}

func TestConv2DBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry did not panic")
		}
	}()
	NewConv2D(0, 1, 3, 1, 0, rand.New(rand.NewSource(1)))
}

func TestConv2DWrongInputPanics(t *testing.T) {
	c := NewConv2D(2, 1, 3, 1, 0, rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("wrong channel count did not panic")
		}
	}()
	c.Forward(tensor.New(1, 5, 5))
}

// numericalGrad estimates d(loss)/d(param) via central differences where
// loss = Σ out[i] * seed[i].
func numericalGrad(forward func() *tensor.Tensor, param *tensor.Tensor, idx int, seed []float32) float64 {
	const eps = 1e-3
	orig := param.Data[idx]
	param.Data[idx] = orig + eps
	up := forward()
	param.Data[idx] = orig - eps
	dn := forward()
	param.Data[idx] = orig
	var lossUp, lossDn float64
	for i := range up.Data {
		lossUp += float64(up.Data[i]) * float64(seed[i])
		lossDn += float64(dn.Data[i]) * float64(seed[i])
	}
	return (lossUp - lossDn) / (2 * eps)
}

func TestConv2DBackwardNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D(2, 2, 3, 1, 1, rng)
	x := tensor.New(2, 4, 4)
	x.Uniform(-1, 1, rng)

	out := c.Forward(x)
	seed := make([]float32, out.Size())
	for i := range seed {
		seed[i] = rng.Float32()*2 - 1
	}
	gradOut := tensor.FromSlice(seed, out.Shape()...)
	c.ZeroGrads()
	gradIn := c.Backward(gradOut)

	forward := func() *tensor.Tensor { return c.Forward(x) }

	// Check a sample of weight gradients.
	for _, idx := range []int{0, 7, 17, c.W.Size() - 1} {
		want := numericalGrad(forward, c.W, idx, seed)
		got := float64(c.gradW.Data[idx])
		if math.Abs(got-want) > 1e-2*math.Max(1, math.Abs(want)) {
			t.Errorf("gradW[%d] = %v, numerical %v", idx, got, want)
		}
	}
	// Bias gradients.
	for idx := 0; idx < c.B.Size(); idx++ {
		want := numericalGrad(forward, c.B, idx, seed)
		got := float64(c.gradB.Data[idx])
		if math.Abs(got-want) > 1e-2*math.Max(1, math.Abs(want)) {
			t.Errorf("gradB[%d] = %v, numerical %v", idx, got, want)
		}
	}
	// Input gradients via perturbing x.
	for _, idx := range []int{0, 5, 21, x.Size() - 1} {
		want := numericalGrad(func() *tensor.Tensor { return c.Forward(x) }, x, idx, seed)
		got := float64(gradIn.Data[idx])
		if math.Abs(got-want) > 1e-2*math.Max(1, math.Abs(want)) {
			t.Errorf("gradIn[%d] = %v, numerical %v", idx, got, want)
		}
	}
}

func TestConv2DBackwardBeforeForwardPanics(t *testing.T) {
	c := NewConv2D(1, 1, 2, 1, 0, rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("Backward before Forward did not panic")
		}
	}()
	c.Backward(tensor.New(1, 1, 1))
}

func TestConv2DZeroGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewConv2D(1, 1, 2, 1, 0, rng)
	x := tensor.New(1, 3, 3)
	x.Uniform(-1, 1, rng)
	out := c.Forward(x)
	g := tensor.New(out.Shape()...)
	g.Fill(1)
	c.Backward(g)
	c.ZeroGrads()
	for _, v := range c.gradW.Data {
		if v != 0 {
			t.Fatal("ZeroGrads left weight gradient")
		}
	}
	for _, v := range c.gradB.Data {
		if v != 0 {
			t.Fatal("ZeroGrads left bias gradient")
		}
	}
}

// naiveConv2DForward is the direct loop nest Conv2D.Forward ran before its
// row-form kernels, kept verbatim as the bit-exact oracle: every output
// receives bias, then its terms in (ic, ky, kx) order.
func naiveConv2DForward(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	h, w := x.Dim(1), x.Dim(2)
	oh, ow := c.OutSize(h, w)
	out := tensor.New(c.OutC, oh, ow)
	k := c.K
	wd, xd, od := c.W.Data, x.Data, out.Data
	for oc := 0; oc < c.OutC; oc++ {
		bias := c.B.Data[oc]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				acc := bias
				for ic := 0; ic < c.InC; ic++ {
					wBase, xBase := (oc*c.InC+ic)*k*k, ic*h*w
					for ky := 0; ky < k; ky++ {
						iy := oy*c.Stride - c.Pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						wRow := wd[wBase+ky*k : wBase+ky*k+k]
						xRow := xd[xBase+iy*w : xBase+iy*w+w]
						for kx := range wRow {
							ix := ox*c.Stride - c.Pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							acc += wRow[kx] * xRow[ix]
						}
					}
				}
				od[(oc*oh+oy)*ow+ox] = acc
			}
		}
	}
	return out
}

// naiveConv2DBackward is the direct loop nest Conv2D.Backward ran before
// its row-form kernels, kept verbatim as the bit-exact oracle. It
// accumulates into gradW and gradB and returns the input gradient.
func naiveConv2DBackward(c *Conv2D, x, gradOut, gradW, gradB *tensor.Tensor) *tensor.Tensor {
	h, w := x.Dim(1), x.Dim(2)
	oh, ow := c.OutSize(h, w)
	gradIn := tensor.New(c.InC, h, w)
	k := c.K
	wd, xd, gd := c.W.Data, x.Data, gradOut.Data
	gw, gi := gradW.Data, gradIn.Data
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				g := gd[(oc*oh+oy)*ow+ox]
				if g == 0 {
					continue
				}
				gradB.Data[oc] += g
				for ic := 0; ic < c.InC; ic++ {
					wBase, xBase := (oc*c.InC+ic)*k*k, ic*h*w
					for ky := 0; ky < k; ky++ {
						iy := oy*c.Stride - c.Pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						wOff, xOff := wBase+ky*k, xBase+iy*w
						for kx := 0; kx < k; kx++ {
							ix := ox*c.Stride - c.Pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							gw[wOff+kx] += g * xd[xOff+ix]
							gi[xOff+ix] += g * wd[wOff+kx]
						}
					}
				}
			}
		}
	}
	return gradIn
}

// convCase is one Conv2D geometry with the share of exact zeros (and
// negative zeros) in its input and output gradient.
type convCase struct {
	inC, outC, k, stride, pad, h, w int
	zeros                           float32
}

// fillMixed fills t with values in (-1, 1), a share `zeros` of them exact
// ±0, the values ReLU and MaxPool2 feed a convolution in training.
func fillMixed(t *tensor.Tensor, zeros float32, rng *rand.Rand) {
	for i := range t.Data {
		switch r := rng.Float32(); {
		case r < zeros/2:
			t.Data[i] = 0
		case r < zeros:
			t.Data[i] = float32(math.Copysign(0, -1))
		default:
			t.Data[i] = rng.Float32()*2 - 1
		}
	}
}

// checkConvMatchesNaive runs Forward and Backward on one random instance of
// tc and compares every output and gradient bit for bit with the oracle.
// Parameter gradients start nonzero so the accumulation order is checked
// too.
func checkConvMatchesNaive(t *testing.T, tc convCase, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := NewConv2D(tc.inC, tc.outC, tc.k, tc.stride, tc.pad, rng)
	c.B.Uniform(-1, 1, rng)
	fillMixed(c.gradW, tc.zeros, rng)
	fillMixed(c.gradB, tc.zeros, rng)
	x := tensor.New(tc.inC, tc.h, tc.w)
	fillMixed(x, tc.zeros, rng)
	gradW, gradB := c.gradW.Clone(), c.gradB.Clone()

	out := c.Forward(x)
	want := naiveConv2DForward(c, x)
	gradOut := tensor.New(out.Shape()...)
	fillMixed(gradOut, tc.zeros, rng)
	gradIn := c.Backward(gradOut)
	wantIn := naiveConv2DBackward(c, x, gradOut, gradW, gradB)

	for _, cmp := range []struct {
		name      string
		got, want *tensor.Tensor
	}{
		{"out", out, want},
		{"gradW", c.gradW, gradW},
		{"gradB", c.gradB, gradB},
		{"gradIn", gradIn, wantIn},
	} {
		for i := range cmp.want.Data {
			if g, w := math.Float32bits(cmp.got.Data[i]), math.Float32bits(cmp.want.Data[i]); g != w {
				t.Fatalf("%+v seed %d: %s[%d] = %#08x, naive %#08x", tc, seed, cmp.name, i, g, w)
			}
		}
	}
}

func TestConv2DMatchesNaive(t *testing.T) {
	for _, tc := range []convCase{
		{1, 6, 5, 1, 0, 32, 32, 0.1},  // LeNet conv1
		{6, 16, 5, 1, 0, 14, 14, 0.8}, // LeNet conv2, ReLU/MaxPool-sparse
		{3, 8, 3, 1, 1, 64, 64, 0.1},  // DarkNet conv1
		{8, 16, 3, 1, 1, 32, 32, 0.8}, // DarkNet conv2
		{32, 64, 3, 1, 1, 8, 8, 0.8},  // DarkNet conv4
		{64, 10, 1, 1, 0, 4, 4, 0.5},  // DarkNet 1x1 head
		{2, 3, 3, 2, 1, 9, 7, 0.3},    // stride 2
		{2, 3, 4, 3, 2, 11, 8, 0.3},   // stride 3
		{2, 2, 3, 3, 4, 7, 10, 0.3},   // stride 3, pad > K
		{1, 2, 2, 1, 3, 3, 4, 0.3},    // pad > K: whole outputs in padding
		{2, 2, 3, 1, 3, 5, 6, 0.3},    // pad = K
		{1, 1, 5, 1, 2, 3, 2, 0.3},    // input narrower than the kernel
		{3, 2, 1, 1, 0, 4, 6, 0.3},    // 1x1
		{2, 2, 1, 2, 1, 5, 3, 0.3},    // 1x1, stride 2, padded
		{2, 3, 5, 1, 0, 9, 23, 0.95},  // h != w, almost all zeros
		{1, 2, 3, 1, 1, 1, 13, 0.5},   // single row
		{3, 4, 6, 2, 5, 13, 4, 0.6},   // even kernel, stride 2, pad < K
	} {
		for seed := int64(1); seed <= 3; seed++ {
			checkConvMatchesNaive(t, tc, seed)
		}
	}
}

// FuzzConv2DMatchesNaive searches geometries (up to 4 channels, kernel 6,
// stride 4, pad 7, 12×12 input) and finite values for a mismatch with the
// oracle.
func FuzzConv2DMatchesNaive(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(2), uint8(5), uint8(1), uint8(0), uint8(12), uint8(12), uint8(200))
	f.Add(int64(2), uint8(2), uint8(3), uint8(3), uint8(2), uint8(1), uint8(9), uint8(7), uint8(80))
	f.Add(int64(3), uint8(1), uint8(1), uint8(2), uint8(3), uint8(5), uint8(3), uint8(4), uint8(0))
	f.Add(int64(4), uint8(3), uint8(2), uint8(1), uint8(1), uint8(0), uint8(4), uint8(6), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, inC, outC, k, stride, pad, h, w, zeros uint8) {
		tc := convCase{
			inC: int(inC%4) + 1, outC: int(outC%4) + 1, k: int(k%6) + 1,
			stride: int(stride%4) + 1, pad: int(pad % 8),
			h: int(h%12) + 1, w: int(w%12) + 1, zeros: float32(zeros) / 255,
		}
		if tc.h+2*tc.pad < tc.k || tc.w+2*tc.pad < tc.k {
			t.Skip("input smaller than the kernel")
		}
		checkConvMatchesNaive(t, tc, seed)
	})
}
