// Command scanvet runs the platform's invariant analyzer suite
// (internal/invariant) over Go packages: project-specific vet passes that
// mechanically enforce the carry-forward invariants — cancellation polls
// in executor loops, the *Locked calling convention, the registry
// zero-copy rule, and the knowledge base's Flush-before-read telemetry
// barrier. See docs/ANALYSIS.md.
//
// Usage:
//
//	scanvet [-run name,name] [-list] [packages]
//
// With no packages, ./... is checked. Exit status 1 means findings.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"golang.org/x/tools/go/analysis"

	"scan/internal/invariant"
	"scan/internal/invariant/load"
)

func main() {
	runNames := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list the suite's analyzers and exit")
	flag.Parse()

	suite := invariant.Suite()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *runNames != "" {
		keep := make(map[string]bool)
		for _, n := range strings.Split(*runNames, ",") {
			keep[strings.TrimSpace(n)] = true
		}
		var filtered []*analysis.Analyzer
		for _, a := range suite {
			if keep[a.Name] {
				filtered = append(filtered, a)
				delete(keep, a.Name)
			}
		}
		for n := range keep {
			fmt.Fprintf(os.Stderr, "scanvet: unknown analyzer %q (see -list)\n", n)
			os.Exit(2)
		}
		suite = filtered
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "scanvet:", err)
		os.Exit(2)
	}
	pkgs, err := load.Packages(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scanvet:", err)
		os.Exit(2)
	}
	diags, err := load.Run(pkgs, suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scanvet:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "scanvet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}
