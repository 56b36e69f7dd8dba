package accel

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"nocbt/internal/dnn"
	"nocbt/internal/flit"
	"nocbt/internal/noc"
	"nocbt/internal/tensor"
)

var updateStreamGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// streamRecord runs a 3-input pipelined LeNet batch under a mixed precision
// schedule and renders everything the scheduler's timing can reach:
// outputs (as float32 bits), every LayerStat, LastBatchStats and NoCStats.
func streamRecord(t *testing.T, inBand bool) []byte {
	t.Helper()
	m := dnn.LeNet(rand.New(rand.NewSource(7)))
	cfg := Mesh4x4MC2(paperFixed8)
	cfg.Ordering = flit.Separated
	cfg.InBandIndex = inBand
	cfg.LayerMode = PipelinedLayers
	cfg.Precisions = []int{8, 4, 16, 8, 4}
	eng := mustNew(t, cfg, m)
	outs, err := eng.InferBatch(context.Background(), batchInputs(m, 3, 11))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "config: O2 inband=%v pipelined precisions=%v\n", inBand, cfg.Precisions)
	for i, out := range outs {
		fmt.Fprintf(&b, "output %d shape %v:", i, out.Shape())
		for _, v := range out.Data {
			fmt.Fprintf(&b, " %08x", math.Float32bits(v))
		}
		b.WriteByte('\n')
	}
	for _, st := range eng.LayerStats() {
		fmt.Fprintf(&b, "layer %+v\n", st)
	}
	fmt.Fprintf(&b, "batch %+v\n", eng.LastBatchStats())
	fmt.Fprintf(&b, "noc %+v\n", eng.NoCStats())
	return b.Bytes()
}

// TestStreamingEquivalence pins the scheduler's observable behaviour —
// outputs, per-layer and per-batch statistics, raw NoC counters — byte for
// byte against fixtures recorded from the eager dispatcher that injected
// a layer's whole task set up front. Streaming task packets from the MCs
// just in time must not move a single packet, cycle or bit transition.
// Regenerate with -update only for a deliberate change in simulated
// behaviour.
func TestStreamingEquivalence(t *testing.T) {
	for _, inBand := range []bool{false, true} {
		name := "stream_o2.golden"
		if inBand {
			name = "stream_o2_inband.golden"
		}
		t.Run(name, func(t *testing.T) {
			got := streamRecord(t, inBand)
			path := filepath.Join("testdata", name)
			if *updateStreamGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s drifted from the eager-dispatch fixture:\n got: %s\nwant: %s", name, got, want)
			}
		})
	}
}

// TestMCQueueBounded: the MCs build task packets just in time, so no MC's
// NI ever holds more than mcQueueDepth packets during a LeNet inference —
// the eager dispatcher queued a whole layer there. The bound is read every
// cycle with traffic, from the flit-delivery observer.
func TestMCQueueBounded(t *testing.T) {
	m := dnn.LeNet(rand.New(rand.NewSource(3)))
	cfg := Mesh4x4MC2(paperFixed8)
	cfg.Ordering = flit.Separated
	eng := mustNew(t, cfg, m)
	most := 0
	eng.SetTrace(func(int64, string, noc.LinkClass, *flit.Flit) {
		for _, mc := range cfg.MCs {
			most = max(most, eng.sim.Pending(mc))
		}
	})
	if _, err := eng.Infer(context.Background(), testInput(m, 5)); err != nil {
		t.Fatal(err)
	}
	if most != mcQueueDepth {
		t.Errorf("MC NIs held up to %d packets, want exactly %d", most, mcQueueDepth)
	}
}

// TestEngineInferAllocs is the dispatch→PE allocation guard: a warm
// engine's LeNet inference may allocate at most maxAllocsPerTaskPacket
// heap objects and maxBytesPerTaskPacket bytes per task packet, all-in
// (host layers, ordering kernels, packet contexts, result packets), under
// every ordering that orders in place — O2 with its partner table
// out-of-band and in-band included — and on an engine carrying five
// orderings at once (CountOrderings). The per-packet path allocates
// nothing, a warm call reuses the previous call's run slabs and tables,
// and quantizes weights into the engine's buffers; what remains is per
// layer and per inference (about 85 objects and 100 KB, mostly host-layer
// and output tensors, against some 10,500 task packets).
func TestEngineInferAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three LeNet inferences per ordering")
	}
	const (
		maxAllocsPerTaskPacket = 0.05
		maxBytesPerTaskPacket  = 16
	)
	m := dnn.LeNet(rand.New(rand.NewSource(3)))
	input := testInput(m, 5)
	for _, tc := range []struct {
		name    string
		order   flit.Ordering
		inBand  bool
		counted []flit.Ordering
	}{
		{"O0", flit.Baseline, false, nil},
		{"O1", flit.Affiliated, false, nil},
		{"O2", flit.Separated, false, nil},
		{"O2-inband", flit.Separated, true, nil},
		{"popcount-asc", flit.PopcountAsc, false, nil},
		{"five-orderings", flit.Baseline, false, []flit.Ordering{flit.Affiliated, flit.Separated, flit.HammingNN, flit.PopcountAsc}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Mesh4x4MC2(paperFixed8)
			cfg.Ordering, cfg.InBandIndex = tc.order, tc.inBand
			eng := mustNew(t, cfg, m)
			if err := eng.CountOrderings(tc.counted...); err != nil {
				t.Fatal(err)
			}
			infer := func() {
				if _, err := eng.Infer(context.Background(), input); err != nil {
					t.Fatal(err)
				}
			}
			infer() // warm the flit pool, the engine scratch and its slabs
			before := eng.TaskPackets()
			var mem0, mem1 runtime.MemStats
			runtime.ReadMemStats(&mem0)
			allocs := testing.AllocsPerRun(2, infer)
			runtime.ReadMemStats(&mem1)
			// AllocsPerRun makes one extra warm-up call before measuring.
			perInfer := float64(eng.TaskPackets()-before) / 3
			perPacket := allocs / perInfer
			bytesPerPacket := float64(mem1.TotalAlloc-mem0.TotalAlloc) / 3 / perInfer
			t.Logf("%.0f allocs per inference, %.0f task packets: %.3f allocs and %.1f bytes per task packet", allocs, perInfer, perPacket, bytesPerPacket)
			if perPacket > maxAllocsPerTaskPacket {
				t.Errorf("warm %s LeNet Infer allocates %.3f objects per task packet, budget %.2f", tc.name, perPacket, maxAllocsPerTaskPacket)
			}
			if bytesPerPacket > maxBytesPerTaskPacket {
				t.Errorf("warm %s LeNet Infer allocates %.1f bytes per task packet, budget %d", tc.name, bytesPerPacket, maxBytesPerTaskPacket)
			}
		})
	}
}

// schedRecord runs one Infer and an InferBatch of three copies of one
// input on a serial engine and an InferBatch of every input on a pipelined
// one, all under GOMAXPROCS procs, and renders everything the runs
// produce: outputs as float32 bits, each call's LayerStats and
// LastBatchStats, and TotalBT, Cycles, EnergyCounters and TaskPackets of
// both engines.
func schedRecord(t *testing.T, cfg Config, m *dnn.Model, inputs []*tensor.Tensor, procs int) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var b bytes.Buffer
	// record renders one call's outputs and the engine's per-call records.
	record := func(eng *Engine, outs ...*tensor.Tensor) {
		for _, out := range outs {
			for _, v := range out.Data {
				fmt.Fprintf(&b, " %08x", math.Float32bits(v))
			}
			b.WriteByte('\n')
		}
		for _, st := range eng.LayerStats() {
			fmt.Fprintf(&b, "layer %+v\n", st)
		}
		fmt.Fprintf(&b, "batch %+v\n", eng.LastBatchStats())
	}
	ctx := context.Background()
	serial := mustNew(t, cfg, m)
	out, err := serial.Infer(ctx, inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	record(serial, out)
	outs, err := serial.InferBatch(ctx, []*tensor.Tensor{inputs[1], inputs[1], inputs[1]})
	if err != nil {
		t.Fatal(err)
	}
	record(serial, outs...)
	pcfg := cfg
	pcfg.LayerMode = PipelinedLayers
	pipelined := mustNew(t, pcfg, m)
	if outs, err = pipelined.InferBatch(ctx, inputs); err != nil {
		t.Fatal(err)
	}
	record(pipelined, outs...)
	for _, eng := range []*Engine{serial, pipelined} {
		fmt.Fprintf(&b, "bt %d cycles %d tasks %d energy %+v\n",
			eng.TotalBT(), eng.Cycles(), eng.TaskPackets(), eng.EnergyCounters())
	}
	return b.Bytes()
}

// TestEncodeAheadSchedulingIndependent pins that the host's scheduling
// reaches no simulated number: an engine call runs on the caller's
// goroutine alone, so under GOMAXPROCS(1) and GOMAXPROCS(4) the outputs,
// BT, cycles, layer stats, energy counters and packet counts must agree
// bit for bit, for every ordering, index mode and lane format, on a single
// Infer and on serial and pipelined batches.
func TestEncodeAheadSchedulingIndependent(t *testing.T) {
	m := microNet(rand.New(rand.NewSource(61)))
	inputs := batchInputs(m, 4, 62)
	for _, ord := range []struct {
		name   string
		id     flit.Ordering
		inBand bool
	}{
		{"O0", flit.Baseline, false},
		{"O1", flit.Affiliated, false},
		{"O2", flit.Separated, false},
		{"O2-inband", flit.Separated, true},
		{"hamming-nn", flit.HammingNN, false},
		{"popcount-asc", flit.PopcountAsc, false},
	} {
		for _, format := range []struct {
			name       string
			geom       flit.Geometry
			precisions []int
		}{
			{"fixed8", paperFixed8, nil},
			{"float32", paperFloat32, nil},
			{"mixed", paperFixed8, []int{8, 4, 16}},
		} {
			t.Run(ord.name+"/"+format.name, func(t *testing.T) {
				cfg := Mesh4x4MC2(format.geom)
				cfg.Ordering, cfg.InBandIndex = ord.id, ord.inBand
				cfg.Precisions = format.precisions
				one := schedRecord(t, cfg, m, inputs, 1)
				four := schedRecord(t, cfg, m, inputs, 4)
				if !bytes.Equal(one, four) {
					t.Fatalf("GOMAXPROCS 1 and 4 disagree:\n--- 1 ---\n%s--- 4 ---\n%s", one, four)
				}
			})
		}
	}
}
