// power_report converts measured bit transitions into link energy and
// power using the paper's §V-C link models, and prints the Tab. II
// hardware-cost comparison for the ordering unit.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"nocbt"
	"nocbt/internal/hwmodel"
)

func main() {
	model := nocbt.LeNet(1)
	input := nocbt.SampleInput(model, 7)

	// Measure O0 vs O2 transitions for one inference on the default mesh.
	var btO0, btO2 int64
	var cycles int64
	cfg, err := nocbt.NewPlatform(nocbt.PaperOptions4x4MC2(nocbt.Fixed8())...)
	if err != nil {
		log.Fatal(err)
	}
	for _, ord := range []nocbt.Ordering{nocbt.O0, nocbt.O2} {
		r, err := nocbt.RunModelOnNoC(context.Background(), "4x4 MC2", cfg, ord, model, input)
		if err != nil {
			log.Fatal(err)
		}
		if ord == nocbt.O0 {
			btO0 = r.TotalBT
		} else {
			btO2 = r.TotalBT
			cycles = r.Cycles
		}
	}
	reduction := 1 - float64(btO2)/float64(btO0)
	fmt.Printf("one LeNet inference, 4x4 MC2 fixed-8: O0=%d BT, O2=%d BT (%.2f%% reduction)\n",
		btO0, btO2, 100*reduction)

	// Convert to energy with both §V-C link models.
	for _, m := range []struct {
		name   string
		energy float64
	}{
		{"ours (0.173 pJ/transition)", hwmodel.EnergyPerTransitionOurs},
		{"Banerjee (0.532 pJ/transition)", hwmodel.EnergyPerTransitionBanerjee},
	} {
		lm := hwmodel.PaperLinkModel(m.energy)
		e0 := lm.EnergyForTransitions(btO0)
		e2 := lm.EnergyForTransitions(btO2)
		// Average power over the inference at 125 MHz.
		t := float64(cycles) / lm.FreqHz
		fmt.Printf("%-32s energy %.3f uJ -> %.3f uJ; avg link power %.2f mW -> %.2f mW\n",
			m.name, e0*1e6, e2*1e6, e0/t*1e3, e2/t*1e3)
	}

	fmt.Println()
	printExperiment("table2", nocbt.Params{})
	fmt.Println()
	printExperiment("power", nocbt.Params{BTReductionPct: 100 * reduction})
}

// printExperiment runs a registered experiment and prints its text form.
func printExperiment(name string, p nocbt.Params) {
	res, err := nocbt.RunExperiment(context.Background(), name, p)
	if err == nil {
		err = nocbt.WriteResult(os.Stdout, res, nocbt.Text)
	}
	if err != nil {
		log.Fatal(err)
	}
}
