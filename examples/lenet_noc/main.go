// lenet_noc reproduces the heart of the paper's Fig. 12 interactively: a
// trained LeNet runs on three NoC platforms (4×4/MC2, 8×8/MC4, 8×8/MC8)
// under all three orderings, printing per-layer traffic for the default
// platform.
package main

import (
	"context"
	"fmt"
	"log"

	"nocbt"
)

func main() {
	ctx := context.Background()
	fmt.Println("training LeNet on the synthetic digit dataset (one-time)...")
	model := nocbt.TrainedLeNet(1)
	input := nocbt.SampleInput(model, 7)

	for _, p := range nocbt.PaperPlatforms() {
		var baseline int64
		for _, ord := range nocbt.Orderings() {
			r, err := nocbt.RunModelOnNoC(ctx, p.Name, p.Build(nocbt.Fixed8()), ord, model, input)
			if err != nil {
				log.Fatal(err)
			}
			if ord == nocbt.O0 {
				baseline = r.TotalBT
			}
			fmt.Printf("%-8s %s: BT=%12d (%.2f%% reduction), %d cycles, %d packets\n",
				p.Name, ord, r.TotalBT,
				100*(1-float64(r.TotalBT)/float64(baseline)), r.Cycles, r.Packets)
		}
	}

	// Per-layer traffic detail on the default platform with O2.
	cfg, err := nocbt.NewPlatform(nocbt.PaperOptions4x4MC2(nocbt.Fixed8())...)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Ordering = nocbt.O2
	eng, err := nocbt.NewEngine(cfg, model)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := eng.Infer(ctx, input); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nper-layer traffic (4x4 MC2, O2):")
	for _, ls := range eng.LayerStats() {
		if !ls.OverNoC {
			continue
		}
		fmt.Printf("  %-22s %6d tasks %8d flits %12d BT %8d cycles\n",
			ls.Name, ls.Tasks, ls.Flits, ls.BT, ls.Cycles)
	}
}
