// rainbench regenerates every table and figure of the paper's evaluation
// (§4) plus the ablation studies listed in DESIGN.md. Each experiment
// prints a table with the measured values next to the paper's published or
// predicted numbers.
//
// Usage:
//
//	rainbench -exp all          # run everything
//	rainbench -exp e3           # only the Figure 3 reproduction
//	rainbench -exp e1,e2,a3     # a comma-separated subset
//	rainbench e2                # positional form of -exp e2
//
// Throughput, latency and recovery of the sharded store are measured by
// the benchmark module (benchmark/), not here.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiments to run: all or a comma list of e1,e2,e3,e4,a1,a2,a3")
	flag.Parse()

	known := []string{"e1", "e2", "e3", "e4", "a1", "a2", "a3"}
	selection := *exp
	// Positional form: `rainbench e2` == `rainbench -exp e2`. Mixing the
	// two would silently drop one, so it is an error; so is an unknown
	// name (flag.Parse stops at the first positional argument, which
	// would otherwise swallow misplaced flags like `rainbench e2
	// -exp=e3` without a trace).
	if args := flag.Args(); len(args) > 0 {
		expSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "exp" {
				expSet = true
			}
		})
		if expSet {
			log.Fatalf("rainbench: use either -exp or positional experiment names, not both (got -exp %q and %v)", *exp, args)
		}
		selection = strings.Join(args, ",")
	}
	want := map[string]bool{}
	if strings.TrimSpace(strings.ToLower(selection)) == "all" {
		for _, e := range known {
			want[e] = true
		}
	} else {
		for _, e := range strings.Split(selection, ",") {
			name := strings.TrimSpace(strings.ToLower(e))
			if !slices.Contains(known, name) {
				log.Fatalf("rainbench: unknown experiment %q (valid: all, %s; flags go before positional names)", name, strings.Join(known, ", "))
			}
			want[name] = true
		}
	}

	fmt.Println("Raincore reproduction benchmark harness")
	fmt.Println("paper: The Raincore Distributed Session Service for Networking Elements (IPPS 2001)")
	fmt.Println()

	start := time.Now()
	if want["e1"] {
		cfg := experiments.DefaultE1()
		rows, err := experiments.E1TaskSwitching(cfg)
		if err != nil {
			log.Fatalf("E1: %v", err)
		}
		fmt.Println(experiments.E1Table(rows, cfg))
	}
	if want["e2"] {
		cfg := experiments.DefaultE2()
		rows, err := experiments.E2NetworkOverhead(cfg)
		if err != nil {
			log.Fatalf("E2: %v", err)
		}
		fmt.Println(experiments.E2Table(rows, cfg))
	}
	if want["e3"] {
		cfg := experiments.DefaultE3()
		rows, err := experiments.E3RainwallScaling(cfg)
		if err != nil {
			log.Fatalf("E3: %v", err)
		}
		fmt.Println(experiments.E3Table(rows, cfg))
	}
	if want["e4"] {
		cfg := experiments.DefaultE4()
		rows, err := experiments.E4Failover(cfg)
		if err != nil {
			log.Fatalf("E4: %v", err)
		}
		fmt.Println(experiments.E4Table(rows, cfg))
	}
	if want["a1"] {
		rows, err := experiments.A1SafeVsAgreed(4, 50)
		if err != nil {
			log.Fatalf("A1: %v", err)
		}
		fmt.Println(experiments.A1Table(rows))
	}
	if want["a2"] {
		rows, err := experiments.A2SendStrategy(100)
		if err != nil {
			log.Fatalf("A2: %v", err)
		}
		fmt.Println(experiments.A2Table(rows, 100))
	}
	if want["a3"] {
		rows, err := experiments.A3TokenInterval([]time.Duration{
			time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond,
		})
		if err != nil {
			log.Fatalf("A3: %v", err)
		}
		fmt.Println(experiments.A3Table(rows))
	}
	fmt.Fprintf(os.Stderr, "total runtime: %v\n", time.Since(start).Round(time.Second))
}
