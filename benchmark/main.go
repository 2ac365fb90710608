// Command benchmark is Loki's one named benchmark: four workloads, twelve
// end-to-end metrics, and a traced run that attributes time to layers. See README.md in this directory.
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [-report file]
//	benchmark --workload all [--seed n] [--seconds s] [-report file]
//	benchmark -compare a.json b.json
//	benchmark -spec
//
// A run prints, as the last line of standard output, one JSON object
// with the keys correct, attempted, failed and metrics, and exits
// nonzero when a correctness check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+workloadNames()+", or all")
		seed         = flag.Uint64("seed", 1, "seed every generated input is made from")
		seconds      = flag.Int("seconds", defaultRunSeconds, "how long the timed phases run")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
		reportPath   = flag.String("report", "", "append this run's full report (context, windows, sample counts) to a JSON file")
		dataDir      = flag.String("data-dir", filepath.Join(".bench_build", "data"), "where topologies keep their files; the fsync device under test")
		spansDir     = flag.String("spans-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes its spans as JSON lines")
		compare      = flag.Bool("compare", false, "compare two report files: -compare a.json b.json")
		spec         = flag.Bool("spec", false, "print BENCHMARK.json and exit")
		spin         = flag.Bool("spin", false, "internal: run as a spinner child (see startSpinners)")
	)
	flag.Parse()
	switch {
	case *spin:
		spinIdle()
		return 0
	case *spec:
		b, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Println(string(b))
		return 0
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return runCompare(flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	var todo []runRequest
	switch {
	case *workloadName == "all":
		for i := range workloads {
			todo = append(todo, runRequest{w: &workloads[i]}, runRequest{w: &workloads[i], trace: true})
		}
	case workloadByName(*workloadName) != nil:
		todo = []runRequest{{w: workloadByName(*workloadName), trace: *trace == 1}}
	default:
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want %s, or all)\n", *workloadName, workloadNames())
		return 2
	}
	root := filepath.Join(*dataDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	defer os.RemoveAll(root)
	ctx := newContext(root)
	if stopSpinners, err := startSpinners(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: running without spinners, the numbers will be noisier:", err)
	} else {
		defer stopSpinners()
		ctx.Spinners = runtime.NumCPU()
	}
	code := 0
	for _, req := range todo {
		req.seed, req.seconds, req.dataRoot, req.spansDir = *seed, time.Duration(*seconds)*time.Second, root, *spansDir
		rep, err := req.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", req.w.name, err)
			return 1
		}
		rep.Context = ctx
		rep.print(os.Stderr)
		if *reportPath != "" {
			if err := appendReport(*reportPath, rep); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		line, err := json.Marshal(rep.finalLine())
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println(string(line))
		if !rep.Correct {
			code = 1
		}
	}
	return code
}
