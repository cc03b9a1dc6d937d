// Command experiments regenerates the paper's tables and figures plus the
// quantitative experiments derived from its prose claims. Each experiment
// is indexed in DESIGN.md §3; EXPERIMENTS.md records outcomes.
//
// Usage:
//
//	experiments -run all            # everything (several minutes)
//	experiments -run fig2           # E1/E2: the §2.3 worked example
//	experiments -run campus         # E3/E4/E5: Figures 3 & 4 + spam metrics
//	experiments -run sweep          # E5 ablation: contamination vs cluster size
//	experiments -run complexity     # E6: centralized vs layered cost
//	experiments -run distributed    # E7: worker-count scaling over TCP
//	experiments -run personalization# E8: two-layer personalization
//	experiments -run ablation       # design-choice ablations
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lmmrank/internal/experiments"
	"lmmrank/internal/webgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		which = flag.String("run", "all", "experiment: fig2, campus, sweep, complexity, distributed, personalization, ablation, fusion, churn, all")
		seed  = flag.Int64("seed", 2005, "workload seed")
	)
	flag.Parse()

	runners := map[string]func(int64) error{
		"fig2":            runFig2,
		"campus":          runCampus,
		"sweep":           runSweep,
		"complexity":      runComplexity,
		"distributed":     runDistributed,
		"personalization": runPersonalization,
		"ablation":        runAblation,
		"fusion":          runFusion,
		"churn":           runChurn,
	}
	order := []string{"fig2", "campus", "sweep", "complexity", "distributed", "personalization", "ablation", "fusion", "churn"}

	if *which == "all" {
		for _, name := range order {
			if err := section(name, runners[name], *seed); err != nil {
				return err
			}
		}
		return nil
	}
	fn, ok := runners[*which]
	if !ok {
		return fmt.Errorf("unknown experiment %q (have: %s, all)", *which, strings.Join(order, ", "))
	}
	return section(*which, fn, *seed)
}

func section(name string, fn func(int64) error, seed int64) error {
	fmt.Printf("════ %s ════\n\n", name)
	if err := fn(seed); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	fmt.Println()
	return nil
}

func runFig2(int64) error {
	res, err := experiments.RunFig2()
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

func runCampus(seed int64) error {
	web := webgen.Default()
	web.Seed = seed
	res, err := experiments.RunCampus(experiments.CampusOptions{Web: web})
	if err != nil {
		return err
	}
	fmt.Print(res.FormatFig3())
	fmt.Println()
	fmt.Print(res.FormatFig4())
	fmt.Println()
	fmt.Print(res.FormatSpam())
	return nil
}

func runSweep(seed int64) error {
	res, err := experiments.RunSpamSweep(nil, seed)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

func runComplexity(seed int64) error {
	res, err := experiments.RunComplexity(nil, seed)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

func runDistributed(seed int64) error {
	opts := experiments.DistributedOptions{}
	opts.Web.Seed = seed
	res, err := experiments.RunDistributed(opts)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

func runPersonalization(seed int64) error {
	res, err := experiments.RunPersonalization(seed)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

func runFusion(seed int64) error {
	res, err := experiments.RunFusion(seed)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

func runChurn(seed int64) error {
	res, err := experiments.RunChurn(seed, 25)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

func runAblation(seed int64) error {
	res, err := experiments.RunAblation(seed)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}
