// Command nocsim runs the standalone NoC simulator under a synthetic
// uniform-random traffic pattern and reports per-link bit transition
// statistics — useful for exploring the interconnect without a DNN
// workload.
//
// Usage:
//
//	nocsim [-mesh 4x4] [-topology mesh] [-packets 1000] [-flits 4]
//	       [-link 128] [-seed 1] [-v] [-trace out.json]
//
// With -trace, the full packet lifecycle (inject, per-hop link traversal
// with per-hop BT, NI reassembly) is exported as Chrome trace-event JSON —
// load it in https://ui.perfetto.dev (1 cycle = 1 µs).
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"nocbt/internal/bitutil"
	"nocbt/internal/flit"
	"nocbt/internal/noc"
	"nocbt/internal/obs"
	"nocbt/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nocsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nocsim", flag.ContinueOnError)
	mesh := fs.String("mesh", "4x4", "terminal grid size WxH")
	topology := fs.String("topology", "", "interconnect topology: mesh (default), torus or cmesh")
	concentration := fs.Int("concentration", 0, "cmesh terminals per router (2 or 4; 0 = the topology default)")
	packets := fs.Int("packets", 1000, "packets to inject")
	flits := fs.Int("flits", 4, "payload flits per packet")
	linkBits := fs.Int("link", 128, "link width in bits")
	seed := fs.Int64("seed", 1, "traffic seed")
	verbose := fs.Bool("v", false, "print per-link statistics")
	traceOut := fs.String("trace", "", "write the packet lifecycle as Chrome trace-event JSON to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; a help request is not a failure
		}
		return err
	}

	ws, hs, ok := strings.Cut(*mesh, "x")
	w, werr := strconv.Atoi(ws)
	h, herr := strconv.Atoi(hs)
	if !ok || werr != nil || herr != nil {
		return fmt.Errorf("bad -mesh %q: want WxH, e.g. 4x4", *mesh)
	}
	if *packets < 0 || *flits < 0 {
		return fmt.Errorf("-packets and -flits must be >= 0 (got %d, %d)", *packets, *flits)
	}
	topo, ok := noc.CanonicalTopologyName(*topology)
	if !ok {
		return fmt.Errorf("unknown -topology %q (registered: %v)", *topology, noc.TopologyNames())
	}
	cfg := noc.Config{Width: w, Height: h, Topology: topo, Concentration: *concentration, VCs: 4, BufDepth: 4, LinkBits: *linkBits}
	sim, err := noc.New(cfg)
	if err != nil {
		return err
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(0)
		sim.SetSpanTracer(tracer)
	}

	rng := rand.New(rand.NewSource(*seed))
	nodes := cfg.Nodes()
	if nodes < 2 {
		return fmt.Errorf("mesh %q has %d node(s); need at least 2 for traffic", *mesh, nodes)
	}
	for i := 0; i < *packets; i++ {
		src := rng.Intn(nodes)
		dst := rng.Intn(nodes)
		for dst == src {
			dst = rng.Intn(nodes)
		}
		payloads := make([]bitutil.Vec, *flits)
		for j := range payloads {
			v := bitutil.NewVec(*linkBits)
			for b := 0; b < *linkBits; b += 64 {
				width := 64
				if b+width > *linkBits {
					width = *linkBits - b
				}
				v.SetField(b, width, rng.Uint64())
			}
			payloads[j] = v
		}
		header := bitutil.NewVec(*linkBits)
		idBits := 32
		if idBits > *linkBits {
			idBits = *linkBits
		}
		header.SetField(0, idBits, uint64(i)&(1<<uint(idBits)-1))
		pkt := flit.NewPacket(uint64(i+1), src, dst, header, payloads)
		if err := sim.Inject(pkt); err != nil {
			return err
		}
	}
	if err := sim.Drain(100_000_000); err != nil {
		return err
	}
	if tracer != nil {
		var buf bytes.Buffer
		if err := tracer.WriteChrome(&buf); err != nil {
			return err
		}
		if err := os.WriteFile(*traceOut, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: %d spans -> %s", tracer.Len(), *traceOut)
		if d := tracer.Dropped(); d > 0 {
			fmt.Fprintf(stdout, " (%d spans dropped; ring full)", d)
		}
		fmt.Fprintln(stdout)
	}

	st := sim.Stats()
	fmt.Fprintf(stdout, "%s %dx%d, %d packets x %d flits, %d-bit links\n",
		noc.TopologyDisplayName(topo), w, h, *packets, *flits+1, *linkBits)
	fmt.Fprintf(stdout, "cycles:            %d\n", st.Cycles)
	fmt.Fprintf(stdout, "delivered packets: %d\n", st.PacketsDelivered)
	fmt.Fprintf(stdout, "router-link BT:    %d\n", st.RouterBT)
	fmt.Fprintf(stdout, "ejection BT:       %d\n", st.EjectionBT)
	fmt.Fprintf(stdout, "total BT (paper):  %d\n", sim.TotalBT())
	fmt.Fprintf(stdout, "avg latency:       %.1f cycles (max %d)\n", st.AvgLatency, st.MaxLatency)

	if *verbose {
		t := stats.NewTable("link", "class", "flits", "BT")
		for _, ls := range sim.LinkStats() {
			if ls.Flits == 0 {
				continue
			}
			t.AddRowf(ls.Name, ls.Class.String(), ls.Flits, ls.BT)
		}
		fmt.Fprintln(stdout)
		io.WriteString(stdout, t.String())
	}
	return nil
}
