package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCountFileSLOC(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		want int
	}{
		{"code", "x := 1", 1},
		{"blank", "\n  \n\t", 0},
		{"line comment", "// c", 0},
		{"code then line comment", "x := 1 // c", 1},
		{"code then block comment", "f(2 /* n */)", 1},
		{"closed block comment", "/* x */", 0},
		{"code after closed block comment", "/* x */ y := 1", 1},
		{"line comment after closed block comment", "/* x */ // y", 0},
		{"two block comments then code", "/* a */ /* b */ c()", 1},
		{"empty block comment", "/**/", 0},
		{"multi-line block comment", "/* a\nb := 2\n*/", 0},
		{"code after multi-line block comment", "/* a\nb\n*/ z := 1", 1},
		{"slash star slash opens only", "/*/ x\ny\n*/", 0},
		{"block then code lines", "/*\nx\n*/\na()\nb()", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "f.go")
			if err := os.WriteFile(path, []byte(tc.src), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := countFileSLOC(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("countFileSLOC(%q) = %d, want %d", tc.src, got, tc.want)
			}
		})
	}
}

func TestTable3CountsThisRepo(t *testing.T) {
	rows, err := table3("../..")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	render(&sb, rows)
	out := sb.String()
	if !strings.Contains(out, "Total trusted") || !strings.Contains(out, "Total untrusted") {
		t.Fatalf("missing totals:\n%s", out)
	}
	// The repo is far past trivial size by now.
	var total string
	for _, row := range rows {
		if row[0] == "Total" {
			total = row[2]
		}
	}
	if total == "" || total == "0" {
		t.Fatalf("total SLOC = %q", total)
	}
}

// TestTable3CoversEveryPackage: a directory under internal/ that holds
// implementation code is counted in exactly one row of Table 3.
func TestTable3CoversEveryPackage(t *testing.T) {
	rows := map[string]int{}
	for _, comp := range table3Components {
		for _, dir := range comp.dirs {
			rows[dir]++
		}
	}
	entries, err := os.ReadDir("../../internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := "internal/" + e.Name()
		if n, err := countDirSLOC(filepath.Join("../..", dir)); err != nil {
			t.Fatal(err)
		} else if n > 0 && rows[dir] == 0 {
			t.Errorf("%s (%d SLOC) is in no row of Table 3", dir, n)
		}
	}
	for dir, n := range rows {
		if n > 1 {
			t.Errorf("%s is in %d rows of Table 3", dir, n)
		}
	}
}
