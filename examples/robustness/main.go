// Command robustness runs a miniature of the paper's Fig. 9 robustness
// study: edges are removed from the Econ network at increasing ratios and
// alignment accuracy is tracked for HTC and two of its ablations, plus a
// refined HTC run (RefineIters > 0 appends the RefiNA stage) whose lift
// should grow as noise increases. The multi-orbit-aware training of HTC
// is expected to degrade more gracefully than the orbit-0-only variant.
//
// Each (source, target) pair is prepared once and all three variants run
// over the shared artifacts via the staged API: HTC and HTC-H reuse the
// same orbit counts and Laplacians, so the sweep pays the expensive
// stages once per ratio rather than once per variant.
//
// Run it with:
//
//	go run ./examples/robustness
package main

import (
	"fmt"
	"log"

	htc "github.com/htc-align/htc"
)

func main() {
	src := htc.Econ(400, 31)
	fmt.Printf("source: %v\n\n", src)
	fmt.Printf("%-8s %10s %10s %10s %10s\n", "removal", "HTC p@1", "HTC+R p@1", "HTC-H p@1", "HTC-L p@1")

	base := htc.Config{K: 8, Hidden: 64, Embed: 32, Epochs: 50, Seed: 33}
	variants := []htc.Variant{htc.VariantFull, htc.VariantHighOrder, htc.VariantLowOrder}

	for _, ratio := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		target, truth := htc.MakeTarget(src, ratio, 32)
		prep, err := htc.Prepare(src, target)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%-8.1f", ratio)
		for i, v := range variants {
			cfg := base
			cfg.Variant = v
			res, err := prep.Align(cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %10.4f", htc.EvaluateSim(res.Sim, truth, 1).PrecisionAt[1])
			if i == 0 {
				// The refined run shares every stage up to integration with
				// the plain one (same config otherwise), so only the RefiNA
				// iterations are extra work.
				cfg.RefineIters = 5
				refined, err := prep.Align(cfg)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf(" %10.4f", htc.EvaluateSim(refined.Sim, truth, 1).PrecisionAt[1])
			}
		}
		fmt.Println()
	}
}
