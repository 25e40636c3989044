// Command kncbench regenerates the tables and figures of the paper's
// evaluation section on the simulated Knights Corner machine.
//
// Usage:
//
//	kncbench -list
//	kncbench -exp table2
//	kncbench -exp all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"phihpl"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command on explicit arguments and streams; it returns
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	exps := phihpl.Experiments()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	fs := flag.NewFlagSet("kncbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list available experiments")
	exp := fs.String("exp", "", "experiment id ("+strings.Join(ids, ", ")+", all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list || *exp == "" {
		fmt.Fprintln(stdout, "available experiments:")
		for _, e := range exps {
			fmt.Fprintf(stdout, "  %-8s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			return 2
		}
		return 0
	}
	if *exp == "all" {
		for _, e := range exps {
			fmt.Fprintf(stdout, "=== %s: %s ===\n%s\n", e.ID, e.Title, e.Run())
		}
		return 0
	}
	e := phihpl.FindExperiment(*exp)
	if e == nil {
		fmt.Fprintf(stderr, "unknown experiment %q (try -list)\n", *exp)
		return 2
	}
	fmt.Fprintf(stdout, "=== %s: %s ===\n%s", e.ID, e.Title, e.Run())
	return 0
}
