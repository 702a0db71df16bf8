// Command perfbench is the repository's benchmark. One invocation runs one
// seeded workload in this process, checks every output against a reference
// that OM did not produce, and prints its metrics:
//
//	perfbench -workload fig7-cold -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with -trace 1 it holds the per-layer metrics of
// a separate traced run. README.md gives the reason for each workload and
// the layer → metric → workload map.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	workload := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs and op order")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced measurement and reports per-layer metrics")
	out := flag.String("out", ".bench_build/traces", "directory for the span dump of a traced run")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		outDir:   *out,
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
