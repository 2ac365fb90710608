// Command loki-bench regenerates every table and figure of the paper and
// prints the reports experiment by experiment. Use -list to see the
// experiment ids, -run to select a subset (e.g. -run e1,a2), -seed to
// change the base seed, and -out to tee the report to a file.
//
// Three system measurements that benchmark/ has no workload for yet
// also live here, each under its own id: failover, load and restart.
// Every other system number comes from benchmark/ (see
// benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"loki/internal/experiments"
	"loki/internal/population"
)

// out is where experiment reports go; -out tees it to a file.
var out io.Writer = os.Stdout

// populationConfig is the shared region config for standalone analyses.
func populationConfig() population.Config { return population.DefaultConfig() }

// experimentIndex describes every experiment id for -list.
var experimentIndex = []struct{ id, what string }{
	{"e1", "§2 de-anonymization pipeline (400 → 72 → 18)"},
	{"e2", "awareness follow-up survey (73/100 unaware-refuse)"},
	{"e3", "Fig. 2 deviation curves per privacy bin"},
	{"e4", "Fig. 2 per-bin rater histogram"},
	{"e5", "§3.2 trusted-rating anecdote (4.72 vs 4.61)"},
	{"e6", "privacy-level take-up (18/32/51/30)"},
	{"e7", "extension: the §2 attack against Loki uploads"},
	{"a1", "ablation: error vs σ and bin size; clamping bias"},
	{"a2", "ablation: stable worker IDs vs pseudonyms"},
	{"a3", "ablation: redundancy filter on/off"},
	{"a4", "ablation: naive mean vs inverse-variance pooling"},
	{"a5", "ablation: ledger composition rules (basic/advanced/zCDP)"},
	{"a6", "ablation: anonymity collapse survey by survey"},
	{"a7", "ablation: Gaussian vs Laplace noise"},
	{"a8", "ablation: budget balancing across the user base"},
	{"failover", "failover: kill the primary mid-run; read availability, detection, promotion, submit recovery"},
	{"load", "load: open-loop Poisson arrivals vs admission control; shed rate and tail latency"},
	{"restart", "restart: first-read latency, whole-backlog rescan vs checkpoint restore"},
}

func main() {
	runFlag := flag.String("run", "all", "comma-separated ids (e1..e7, a1..a8, failover, load, restart) or 'all'")
	seed := flag.Uint64("seed", 1, "base seed for all experiments")
	list := flag.Bool("list", false, "list experiment ids and exit")
	outPath := flag.String("out", "", "also write the report to this file")
	flag.StringVar(&restartJSONPath, "restart-json", restartJSONPath,
		"where the restart measurement writes its machine-readable report (empty: nowhere)")
	flag.StringVar(&restartSizesFlag, "restart-sizes", restartSizesFlag,
		"comma-separated stored-response counts the restart measurement covers")
	flag.StringVar(&failoverJSONPath, "failover-json", failoverJSONPath,
		"where the failover measurement writes its machine-readable report (empty: nowhere)")
	flag.IntVar(&clusterResponses, "cluster-responses", clusterResponses,
		"responses the failover measurement submits before the kill (half as many again after recovery)")
	flag.StringVar(&loadJSONPath, "load-json", loadJSONPath,
		"where the load measurement writes its machine-readable report (empty: nowhere)")
	flag.StringVar(&loadRatesFlag, "load-rates", loadRatesFlag,
		"comma-separated open-loop arrival rates in responses/sec (empty auto-calibrates 0.5x/1x/1.5x of closed-loop capacity)")
	flag.DurationVar(&loadDuration, "load-duration", loadDuration,
		"open-loop window length per arrival rate")
	flag.IntVar(&loadNodes, "load-nodes", loadNodes,
		"nodes in the load experiment's cluster topology")
	flag.IntVar(&loadQueue, "load-submit-queue", loadQueue,
		"frontend admission queue bound in the load experiment")
	flag.IntVar(&loadInflight, "load-inflight", loadInflight,
		"frontend admission inflight bound in the load experiment")
	flag.BoolVar(&loadExpectShed, "load-expect-shed", loadExpectShed,
		"fail the load experiment unless the shed path activated (CI smoke for the overload contract)")
	flag.Parse()

	if *list {
		for _, e := range experimentIndex {
			fmt.Printf("  %-8s %s\n", e.id, e.what)
		}
		return
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loki-bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	want := map[string]bool{}
	for _, id := range strings.Split(strings.ToLower(*runFlag), ",") {
		want[strings.TrimSpace(id)] = true
	}
	all := want["all"]
	sel := func(ids ...string) bool {
		if all {
			return true
		}
		for _, id := range ids {
			if want[id] {
				return true
			}
		}
		return false
	}

	if err := run(sel, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "loki-bench:", err)
		os.Exit(1)
	}
}

func run(sel func(...string) bool, seed uint64) error {
	if sel("e1", "e2") {
		cfg := experiments.DefaultDeanonConfig()
		cfg.Seed = seed
		res, err := experiments.RunDeanonymization(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res.Render())
	}
	if sel("e3", "e4", "e5", "e6") {
		cfg := experiments.DefaultTrialConfig()
		cfg.Seed = seed + 6
		res, err := experiments.RunLecturerTrial(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res.Render())

		tc, err := experiments.RunTrustedComparison(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, tc.Render())

		tk, err := experiments.RunLevelTakeup(seed+7, 200, experiments.PaperTrialStudents)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, tk.Render())
	}
	if sel("a1") {
		cfg := experiments.DefaultSweepConfig()
		cfg.Seed = seed + 10
		res, err := experiments.RunAccuracySweep(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res.Render())
	}
	if sel("a2") {
		cfg := experiments.DefaultDeanonConfig()
		cfg.Seed = seed
		stable, pseud, err := experiments.RunIDPolicyAblation(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.RenderIDPolicyAblation(stable, pseud))
	}
	if sel("a3") {
		cfg := experiments.DefaultDeanonConfig()
		cfg.Seed = seed
		filtered, unfiltered, err := experiments.RunFilterAblation(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.RenderFilterAblation(filtered, unfiltered))
	}
	if sel("a4") {
		cfg := experiments.DefaultTrialConfig()
		cfg.Seed = seed + 6
		res, err := experiments.RunEstimatorAblation(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res.Render())
	}
	if sel("a5") {
		res, err := experiments.RunLedgerGrowth(experiments.DefaultLedgerGrowthConfig())
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res.Render())
	}
	if sel("a6") {
		res, err := experiments.RunLinkageGrowth(seed+20, populationConfig())
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res.Render())
	}
	if sel("a7") {
		cfg := experiments.DefaultNoiseComparisonConfig()
		cfg.Seed = seed + 21
		res, err := experiments.RunNoiseComparison(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res.Render())
	}
	if sel("a8") {
		cfg := experiments.DefaultBalanceConfig()
		cfg.Seed = seed + 22
		res, err := experiments.RunBalancedCollection(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res.Render())
	}
	if sel("e7") {
		cfg := experiments.DefaultDefenseConfig()
		cfg.Deanon.Seed = seed
		res, err := experiments.RunDefense(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res.Render())
	}
	if sel("restart") {
		sizes, err := parseReadpathSizes(restartSizesFlag)
		if err != nil {
			return err
		}
		if err := runRestartBench(sizes); err != nil {
			return err
		}
	}
	if sel("failover") {
		if err := runFailoverBench(); err != nil {
			return err
		}
	}
	if sel("load") {
		if err := runLoadBench(); err != nil {
			return err
		}
	}
	return nil
}
