// Command btexp runs the paper's experiments through the nocbt experiment
// registry: every table and figure, plus arbitrary grids on the concurrent
// sweep runner.
//
// Usage:
//
//	btexp -list
//	btexp [-seed N] [-quick] [-trained=false] [-timeout D] [-format table|json|csv] [-o file] [-trace out.json] -run <name>
//	btexp [flags] <experiment>           (positional form of -run)
//	btexp [flags] all                    (every paper experiment, table format)
//
// With -trace, every simulated packet and accelerator layer phase in the
// run is exported as Chrome trace-event JSON (load it in
// https://ui.perfetto.dev; 1 simulated cycle = 1 µs). Run
// `btexp -list` for the registered experiment names. The sweep
// experiment runs the full ordering × platform × format × model grid on a
// bounded worker pool; restrict it with -platforms/-formats/-models/
// -seeds/-batches, and widen the strategy axes with -orderings (any
// registered ordering strategy) and -codings (none/gray/businvert). The
// codings experiment compares every registered (ordering × link coding)
// combination on the paper workloads. -format json emits the structured
// experiment Result.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"nocbt"
	"nocbt/internal/fsutil"
)

// allOrder is the paper's presentation order for `btexp all`.
var allOrder = []string{"fig1", "table1", "fig9", "fig10", "fig11", "fig12", "fig13", "table2", "power"}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "btexp:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("btexp", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "experiment seed")
	timeout := fs.Duration("timeout", 0, "abort the run after this long (0: no limit)")
	quick := fs.Bool("quick", false, "smaller streams / random weights for a fast pass")
	trained := fs.Bool("trained", true, "use trained weights for the with-NoC experiments")
	out := fs.String("o", "", "write output to file instead of stdout")
	list := fs.Bool("list", false, "list the registered experiments and exit")
	runName := fs.String("run", "", "run the named registered experiment (see -list)")
	format := fs.String("format", "table", "output format: table, json or csv")
	platforms := fs.String("platforms", "", "sweep: comma-separated subset of 4x4,8x8mc4,8x8mc8")
	formats := fs.String("formats", "", "sweep: comma-separated subset of fixed8,float32")
	models := fs.String("models", "", "sweep: comma-separated subset of lenet,darknet")
	seeds := fs.String("seeds", "", "sweep: comma-separated seed list (default: -seed)")
	batches := fs.String("batches", "", "sweep: comma-separated inference batch sizes (default: 1)")
	orderings := fs.String("orderings", "", "sweep: comma-separated ordering strategy names (default: O0,O1,O2; see the strategy registry)")
	codings := fs.String("codings", "", "sweep: comma-separated link codings from none,gray,businvert (default: none)")
	precisions := fs.String("precisions", "", "sweep: comma-separated fixed-point lane widths from 2,4,8,16 (default: the geometry's own format)")
	topologies := fs.String("topology", "", "sweep: comma-separated interconnect topologies from mesh,torus,cmesh (default: the platform's own mesh)")
	traceOut := fs.String("trace", "", "write packet/layer spans as Chrome trace-event JSON to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; a help request is not a failure
		}
		return err
	}

	emit := func(s string) error {
		if *out != "" {
			return atomicWriteFile(*out, []byte(s))
		}
		_, err := io.WriteString(stdout, s)
		return err
	}

	if *list {
		var sb strings.Builder
		for _, e := range nocbt.Experiments() {
			fmt.Fprintf(&sb, "%-8s %s\n", e.Name(), e.Describe())
		}
		return emit(sb.String())
	}

	exp := strings.ToLower(strings.TrimSpace(*runName))
	switch {
	case exp != "" && fs.NArg() > 0:
		return fmt.Errorf("pass either -run <name> or one positional experiment, not both")
	case exp == "" && fs.NArg() != 1:
		return fmt.Errorf("usage: btexp [flags] <experiment|all>, btexp -run <name>, or btexp -list")
	case exp == "":
		exp = strings.ToLower(fs.Arg(0))
	}

	renderAs, err := nocbt.ParseFormat(*format)
	if err != nil {
		return err
	}

	params := nocbt.Params{Seed: *seed, Trained: *trained, Quick: *quick}
	if *quick {
		params.Trained = false // fast pass: skip model training
	}
	if exp == "sweep" {
		spec, err := sweepSpec(*platforms, *formats, *models, *seeds, *batches, *orderings, *codings, *precisions, *topologies, *seed, params.Trained)
		if err != nil {
			return err
		}
		params.Sweep = &spec
	}
	// -timeout bounds the whole run: the context threads through registry
	// experiments, engine scheduling (polled between cycles) and sweep
	// workers, so even a mid-simulation overrun aborts promptly.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// -trace threads a span tracer through the context; every engine the
	// experiments (or sweep workers) build picks it up and records packet
	// and layer-phase spans into one shared ring.
	var tracer *nocbt.Tracer
	if *traceOut != "" {
		tracer = nocbt.NewTracer(0)
		ctx = nocbt.WithTracer(ctx, tracer)
	}
	writeTrace := func() error {
		if tracer == nil {
			return nil
		}
		var buf bytes.Buffer
		if err := nocbt.WriteChromeTrace(&buf, tracer); err != nil {
			return err
		}
		if err := atomicWriteFile(*traceOut, buf.Bytes()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "btexp: trace: %d spans -> %s\n", tracer.Len(), *traceOut)
		if d := tracer.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "btexp: trace: %d spans dropped (ring full; the file holds the earliest spans)\n", d)
		}
		return nil
	}

	if exp == "all" {
		if renderAs != nocbt.Text {
			return fmt.Errorf("`all` renders every experiment as text; use -run <name> with -format %s", *format)
		}
		var sb strings.Builder
		for _, name := range allOrder {
			fmt.Fprintf(os.Stderr, "btexp: running %s...\n", name)
			res, err := nocbt.RunExperiment(ctx, name, params)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			text, err := nocbt.Render(res, nocbt.Text)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			sb.WriteString(text)
			sb.WriteString("\n")
		}
		if err := writeTrace(); err != nil {
			return err
		}
		return emit(sb.String())
	}

	res, err := nocbt.RunExperiment(ctx, exp, params)
	if err != nil {
		return err
	}
	rendered, err := nocbt.Render(res, renderAs)
	if err != nil {
		return err
	}
	if !strings.HasSuffix(rendered, "\n") {
		rendered += "\n"
	}
	if renderAs == nocbt.Text {
		rendered += "\n" // keep the legacy trailing blank line per report
	}
	if err := writeTrace(); err != nil {
		return err
	}
	return emit(rendered)
}

// atomicWriteFile replaces path with data atomically (temp file +
// rename), so a failure mid-write can never leave a truncated or corrupt
// -o file behind: path either keeps its previous content or holds the
// complete new content. Non-regular targets (/dev/stdout, a process
// substitution fifo, a symlink) cannot be renamed over without breaking
// them, so those keep the plain write-through path.
func atomicWriteFile(path string, data []byte) error {
	if info, err := os.Lstat(path); err == nil && !info.Mode().IsRegular() {
		return os.WriteFile(path, data, 0o644)
	}
	return fsutil.WriteFileAtomic(path, data, 0o644)
}

// sweepSpec assembles a SweepSpec from the command-line subset flags;
// empty flags keep the paper's full default axis.
func sweepSpec(platforms, formats, models, seeds, batches, orderings, codings, precisions, topologies string, seed int64, trained bool) (nocbt.SweepSpec, error) {
	spec := nocbt.SweepSpec{Trained: trained, Seeds: []int64{seed}}
	if platforms != "" {
		for _, name := range strings.Split(platforms, ",") {
			p, ok := nocbt.LookupPaperPlatform(name)
			if !ok {
				return spec, fmt.Errorf("unknown platform %q (want 4x4, 8x8mc4 or 8x8mc8)", name)
			}
			spec.Platforms = append(spec.Platforms, p)
		}
	}
	if formats != "" {
		for _, name := range strings.Split(formats, ",") {
			switch strings.ToLower(strings.TrimSpace(name)) {
			case "fixed8", "fixed-8":
				spec.Geometries = append(spec.Geometries, nocbt.Fixed8())
			case "float32", "float-32":
				spec.Geometries = append(spec.Geometries, nocbt.Float32())
			default:
				return spec, fmt.Errorf("unknown format %q (want fixed8 or float32)", name)
			}
		}
	}
	if models != "" {
		for _, name := range strings.Split(models, ",") {
			spec.Models = append(spec.Models, nocbt.SweepModel(strings.ToLower(strings.TrimSpace(name))))
		}
	}
	if seeds != "" {
		spec.Seeds = spec.Seeds[:0]
		for _, s := range strings.Split(seeds, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				return spec, fmt.Errorf("bad seed %q: %w", s, err)
			}
			spec.Seeds = append(spec.Seeds, v)
		}
	}
	if batches != "" {
		for _, s := range strings.Split(batches, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v < 1 {
				return spec, fmt.Errorf("bad batch size %q (want a positive integer)", s)
			}
			spec.Batches = append(spec.Batches, v)
		}
	}
	if orderings != "" {
		for _, name := range strings.Split(orderings, ",") {
			ord, err := nocbt.ParseOrdering(strings.TrimSpace(name))
			if err != nil {
				return spec, err
			}
			spec.Orderings = append(spec.Orderings, ord)
		}
	}
	if codings != "" {
		for _, name := range strings.Split(codings, ",") {
			name = strings.TrimSpace(name)
			if _, ok := nocbt.LookupLinkCoding(name); !ok {
				return spec, fmt.Errorf("unknown link coding %q (registered: %v)", name, nocbt.LinkCodingNames())
			}
			spec.Codings = append(spec.Codings, name)
		}
	}
	if precisions != "" {
		for _, s := range strings.Split(precisions, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return spec, fmt.Errorf("bad precision %q (want one of %v)", s, nocbt.FixedWidths())
			}
			if _, gerr := nocbt.FixedGeometry(v); gerr != nil {
				return spec, fmt.Errorf("bad precision %q: %w", s, gerr)
			}
			spec.Precisions = append(spec.Precisions, v)
		}
	}
	if topologies != "" {
		for _, name := range strings.Split(topologies, ",") {
			name = strings.TrimSpace(name)
			if _, ok := nocbt.CanonicalTopologyName(name); !ok {
				return spec, fmt.Errorf("unknown topology %q (registered: %v)", name, nocbt.TopologyNames())
			}
			spec.Topologies = append(spec.Topologies, name)
		}
	}
	return spec, nil
}
