// Package hplio reads HPL.dat-style input files and writes HPL.out-style
// reports, so the repository's drivers speak the same dialect as the
// reference High Performance Linpack distribution the paper builds on.
//
// The parser understands the subset of HPL.dat that controls the
// experiments this repository can run: the lists of problem sizes, block
// sizes and process grids, plus a free-form look-ahead (DEPTH) line that
// selects the paper's none/basic/pipelined schemes. Like the original, the
// file is line-oriented with the value(s) first and a trailing comment,
// and runs the cross-product of all parameter lists.
package hplio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Params is the parsed parameter space of one HPL.dat file.
type Params struct {
	Ns     []int // problem sizes
	NBs    []int // block sizes
	Ps, Qs []int // process grids (paired index-wise, as in HPL)
	Depths []int // look-ahead depth: 0=none, 1=basic, 2=pipelined
}

// Combination is one run of the cross-product.
type Combination struct {
	N, NB, P, Q, Depth int
}

// Combinations expands the parameter space in HPL's order: grids outermost,
// then N, then NB, then depth.
func (p *Params) Combinations() []Combination {
	var out []Combination
	for gi := range p.Ps {
		for _, n := range p.Ns {
			for _, nb := range p.NBs {
				depths := p.Depths
				if len(depths) == 0 {
					depths = []int{1}
				}
				for _, d := range depths {
					out = append(out, Combination{N: n, NB: nb, P: p.Ps[gi], Q: p.Qs[gi], Depth: d})
				}
			}
		}
	}
	return out
}

// Parse reads an HPL.dat-style stream. Unknown lines are ignored (the real
// file has many tuning knobs this repository does not model).
func Parse(r io.Reader) (*Params, error) {
	p := &Params{}
	sc := bufio.NewScanner(r)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var counts struct{ ns, nbs, ps, qs, depths int }
	for _, line := range lines {
		lower := strings.ToLower(line)
		switch {
		case strings.Contains(lower, "# of problems sizes"), strings.Contains(lower, "number of problems"):
			counts.ns = firstInt(line)
		case strings.Contains(lower, "ns"):
			if counts.ns > 0 && len(p.Ns) == 0 {
				p.Ns = leadingInts(line, counts.ns)
			}
		case strings.Contains(lower, "# of nbs"):
			counts.nbs = firstInt(line)
		case strings.Contains(lower, "nbs"):
			if counts.nbs > 0 && len(p.NBs) == 0 {
				p.NBs = leadingInts(line, counts.nbs)
			}
		case strings.Contains(lower, "# of process grids"):
			counts.ps = firstInt(line)
			counts.qs = counts.ps
		case strings.Contains(lower, "ps"):
			if counts.ps > 0 && len(p.Ps) == 0 {
				p.Ps = leadingInts(line, counts.ps)
			}
		case strings.Contains(lower, "qs"):
			if counts.qs > 0 && len(p.Qs) == 0 {
				p.Qs = leadingInts(line, counts.qs)
			}
		case strings.Contains(lower, "# of lookahead depth"):
			counts.depths = firstInt(line)
		case strings.Contains(lower, "depths"):
			if counts.depths > 0 && len(p.Depths) == 0 {
				p.Depths = leadingInts(line, counts.depths)
			}
		}
	}
	if len(p.Ns) == 0 || len(p.NBs) == 0 {
		return nil, fmt.Errorf("hplio: no problem or block sizes found")
	}
	if len(p.Ps) == 0 {
		p.Ps, p.Qs = []int{1}, []int{1}
	}
	if len(p.Qs) != len(p.Ps) {
		return nil, fmt.Errorf("hplio: %d Ps but %d Qs", len(p.Ps), len(p.Qs))
	}
	for _, d := range p.Depths {
		if d < 0 || d > 2 {
			return nil, fmt.Errorf("hplio: look-ahead depth %d out of range [0,2]", d)
		}
	}
	return p, nil
}

// firstInt extracts the first integer token of a line (the value field).
func firstInt(line string) int {
	for _, f := range strings.Fields(line) {
		if v, err := strconv.Atoi(f); err == nil {
			return v
		}
	}
	return 0
}

// leadingInts extracts up to n integer tokens from the front of a line.
func leadingInts(line string, n int) []int {
	var out []int
	for _, f := range strings.Fields(line) {
		v, err := strconv.Atoi(f)
		if err != nil {
			break
		}
		out = append(out, v)
		if len(out) == n {
			break
		}
	}
	return out
}

// Example returns a ready-to-parse HPL.dat covering the paper's
// single-node configurations.
func Example() string {
	return `HPLinpack benchmark input file (phihpl subset)
2            # of problems sizes (N)
84000 166800 Ns
1            # of NBs
1200         NBs
2            # of process grids (P x Q)
1 2          Ps
1 2          Qs
2            # of lookahead depth
1 2          DEPTHs
`
}

// Result is one row of a report.
type Result struct {
	Combination
	Seconds  float64
	GFLOPS   float64
	Residual float64
	Passed   bool
	// Projected marks a row priced on the Knights Corner model, not
	// measured: it has no residual, its T/V code does not start with W, and
	// the footer counts it apart from the tests.
	Projected bool
	// Skipped marks a combination rejected for illegal input values; it
	// prints no row but is counted in the report footer.
	Skipped bool
	// Aborted marks a run cancelled before completion (timeout, SIGINT):
	// its row prints the time that elapsed and no rate, a line marks it
	// ABORTED, and the report — partial, but truthful — ends without
	// "End of Tests.".
	Aborted bool
}

// DepthDynamic is the Depth of a row the native DAG scheduler ran: its
// look-ahead follows task priorities, not a fixed depth. The T/V code
// writes it as D.
const DepthDynamic = -1

// tv returns the row's T/V code, mapped position by position in README.md.
// A measured row is W, R (row-major rank mapping), the DEPTH that ran,
// then the variants every solver here runs: T (binomial-tree broadcast),
// R (right-looking), 1 (the panel is not divided), R (right-looking
// panel) and N (NBMIN is NB: the whole panel is the base case). A
// projected row is KNCd and its DEPTH, which no HPL.out scraper anchored
// on ^W reads as a measurement.
func (r Result) tv() string {
	d := strconv.Itoa(r.Depth)
	if r.Depth == DepthDynamic {
		d = "D"
	}
	if r.Projected {
		return "KNCd" + d
	}
	return "WR" + d + "TR1RN"
}

// Write renders results as an HPL.out report: the header lines (the run's
// configuration, where HPL echoes its parameters; "" prints none), the
// T/V table with each measured row followed by its residual verdict, and
// the footer. Skipped combinations count only in the footer, like the
// reference HPL.
func Write(w io.Writer, header string, results []Result) {
	rule := strings.Repeat("-", 80)
	if header != "" {
		fmt.Fprintln(w, header)
	}
	fmt.Fprintln(w, "T/V                N    NB     P     Q               Time                 Gflops")
	fmt.Fprintln(w, rule)
	var passed, failed, skipped, projected, aborted int
	for _, r := range results {
		if r.Skipped {
			skipped++
			continue
		}
		// Fixed point, not HPL's %e: a scraper's [\d.eE+]+ then captures
		// the whole rate, below 1 Gflops too (%e would end in e-01).
		rate := fmt.Sprintf("%.4f", r.GFLOPS)
		if r.Aborted {
			rate = "-"
		}
		fmt.Fprintf(w, "%-8s%12d %5d %5d %5d %18.2f %22s\n", r.tv(), r.N, r.NB, r.P, r.Q, r.Seconds, rate)
		switch {
		case r.Aborted:
			aborted++
			fmt.Fprintf(w, "N=%d NB=%d P=%d Q=%d run cancelled before completion ...... ABORTED\n", r.N, r.NB, r.P, r.Q)
		case r.Projected:
			projected++
		default:
			status := "PASSED"
			if r.Passed {
				passed++
			} else {
				failed++
				status = "FAILED"
			}
			fmt.Fprintf(w, "||Ax-b||_oo/(eps*(||A||_oo*||x||_oo+||b||_oo)*N)= %10.7f ...... %s\n", r.Residual, status)
		}
	}
	fmt.Fprintln(w, rule)
	fmt.Fprintf(w, "Finished %6d tests with the following results:\n", passed+failed)
	fmt.Fprintf(w, "         %6d tests completed and passed residual checks,\n", passed)
	fmt.Fprintf(w, "         %6d tests completed and failed residual checks,\n", failed)
	fmt.Fprintf(w, "         %6d tests skipped because of illegal input values.\n", skipped)
	if projected > 0 {
		fmt.Fprintf(w, "         %6d rows projected on the Knights Corner model (not tests).\n", projected)
	}
	if aborted > 0 {
		fmt.Fprintf(w, "         %6d tests aborted before completion.\n", aborted)
		return
	}
	fmt.Fprintln(w, rule)
	fmt.Fprintln(w, "End of Tests.")
}
