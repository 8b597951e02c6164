// Command sksloc regenerates Table 3: the size of this repository's
// code base, split into the trusted (in-enclave) and untrusted
// components, mirroring the paper's §6.4 accounting.
//
//	sksloc [repo-root]
package main

import (
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	rows, err := table3(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sksloc:", err)
		os.Exit(1)
	}
	render(os.Stdout, rows)
}

// render writes Table 3 with left-aligned, space-padded columns under
// a dashed rule.
func render(w io.Writer, rows [][]string) {
	header := []string{"component", "trust", "SLOC"}
	widths := make([]int, len(header))
	for _, row := range append([][]string{header}, rows...) {
		for i, cell := range row {
			widths[i] = max(widths[i], len(cell))
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = cell + strings.Repeat(" ", widths[i]-len(cell))
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	fmt.Fprintln(w, "== table3: Size of code base (SLOC, Go, tests excluded) ==")
	line(header)
	rule := make([]string, len(header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range rows {
		line(row)
	}
	fmt.Fprintln(w)
}
