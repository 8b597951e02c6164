package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// table3Components assigns every directory of this repository that
// holds implementation code to one row of Table 3.
var table3Components = []struct {
	label   string
	trusted bool
	dirs    []string
}{
	{"(De-)Serialization (wire)", true, []string{"internal/wire"}},
	{"Counter and entry enclave", true, []string{"internal/enclave"}},
	{"Storage cryptography", true, []string{"internal/skcrypto"}},
	{"Secure channel (enclave endpoint)", true, []string{"internal/transport"}},
	{"Coordination server (ZooKeeper analogue)", false, []string{"internal/server", "internal/ztree", "internal/zab", "internal/zabnet", "internal/storage", "internal/obs"}},
	{"Client library and recipes", false, []string{"internal/client", "recipes"}},
	{"SGX runtime simulation", false, []string{"internal/sgx"}},
	{"Cluster assembly / enclave management", false, []string{"internal/core"}},
	{"Benchmark and fault-injection harness", false, []string{"internal/kvstore", "internal/chaos", "benchmark"}},
	{"Commands and examples", false, []string{"cmd", "examples"}},
}

// table3 reproduces "Size of code base of SecureKeeper components" for
// this repository: source lines of code per component, classified into
// the trusted code base (everything that runs inside enclaves — the
// message (de)serialization, the enclave logic, and the storage
// cryptography) and the untrusted remainder, mirroring the paper's
// breakdown (§6.4). Test files are excluded, as the paper counts only
// implementation code. Each row is {component, trust, SLOC}, followed
// by the trusted, untrusted and overall totals.
func table3(repoRoot string) ([][]string, error) {
	var rows [][]string
	var trustedTotal, untrustedTotal int
	for _, comp := range table3Components {
		var total int
		for _, dir := range comp.dirs {
			n, err := countDirSLOC(filepath.Join(repoRoot, dir))
			if err != nil {
				return nil, fmt.Errorf("sloc %s: %w", dir, err)
			}
			total += n
		}
		trust := "untrusted"
		if comp.trusted {
			trust = "trusted"
			trustedTotal += total
		} else {
			untrustedTotal += total
		}
		rows = append(rows, []string{comp.label, trust, fmt.Sprintf("%d", total)})
	}
	return append(rows,
		[]string{"Total trusted", "trusted", fmt.Sprintf("%d", trustedTotal)},
		[]string{"Total untrusted", "untrusted", fmt.Sprintf("%d", untrustedTotal)},
		[]string{"Total", "", fmt.Sprintf("%d", trustedTotal+untrustedTotal)},
	), nil
}

// countDirSLOC counts non-blank, non-comment Go lines under dir,
// excluding tests.
func countDirSLOC(dir string) (int, error) {
	total := 0
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		n, err := countFileSLOC(path)
		if err != nil {
			return err
		}
		total += n
		return nil
	})
	if os.IsNotExist(err) {
		return 0, nil
	}
	return total, err
}

// countFileSLOC counts source lines: lines that hold code outside
// comments (block comments are tracked across lines).
func countFileSLOC(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()

	count := 0
	inBlock := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var code bool
		code, inBlock = lineCode(strings.TrimSpace(sc.Text()), inBlock)
		if code {
			count++
		}
	}
	return count, sc.Err()
}

// lineCode reports whether a trimmed line holds code, given whether a
// block comment is open at its start, and whether one is open at its
// end. Block comments are skipped where they open at the start of the
// line or continue from an earlier one; a "/*" after code on the same
// line is not tracked, since telling it from one inside a string
// literal would take a tokenizer.
func lineCode(line string, inBlock bool) (code, open bool) {
	for {
		if inBlock {
			end := strings.Index(line, "*/")
			if end < 0 {
				return false, true
			}
			line, inBlock = strings.TrimSpace(line[end+2:]), false
		}
		if !strings.HasPrefix(line, "/*") {
			return line != "" && !strings.HasPrefix(line, "//"), false
		}
		line, inBlock = line[2:], true
	}
}
