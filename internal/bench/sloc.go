package bench

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
	{"Benchmark and fault-injection harness", false, []string{"internal/bench", "internal/kvstore", "internal/chaos", "benchmark"}},
	{"Commands and examples", false, []string{"cmd", "examples"}},
}

// Table3 reproduces "Size of code base of SecureKeeper components" for
// this repository: source lines of code per component, classified into
// the trusted code base (everything that runs inside enclaves — the
// message (de)serialization, the enclave logic, and the storage
// cryptography) and the untrusted remainder, mirroring the paper's
// breakdown (§6.4). Test files are excluded, as the paper counts only
// implementation code.
func Table3(repoRoot string) (*Table, error) {
	t := &Table{
		ID: "table3", Title: "Size of code base (SLOC, Go, tests excluded)",
		Header: []string{"component", "trust", "SLOC"},
	}
	var trustedTotal, untrustedTotal int
	for _, comp := range table3Components {
		var total int
		for _, dir := range comp.dirs {
			n, err := countDirSLOC(filepath.Join(repoRoot, dir))
			if err != nil {
				return nil, fmt.Errorf("bench: sloc %s: %w", dir, err)
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
		t.Rows = append(t.Rows, []string{comp.label, trust, fmt.Sprintf("%d", total)})
	}
	t.Rows = append(t.Rows,
		[]string{"Total trusted", "trusted", fmt.Sprintf("%d", trustedTotal)},
		[]string{"Total untrusted", "untrusted", fmt.Sprintf("%d", untrustedTotal)},
		[]string{"Total", "", fmt.Sprintf("%d", trustedTotal+untrustedTotal)},
	)
	return t, nil
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

// countFileSLOC counts source lines: non-blank lines that are not pure
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
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if inBlock {
			if idx := strings.Index(line, "*/"); idx >= 0 {
				inBlock = false
				rest := strings.TrimSpace(line[idx+2:])
				if rest != "" && !strings.HasPrefix(rest, "//") {
					count++
				}
			}
			continue
		}
		if strings.HasPrefix(line, "//") {
			continue
		}
		if strings.HasPrefix(line, "/*") {
			if !strings.Contains(line, "*/") {
				inBlock = true
			}
			continue
		}
		count++
	}
	return count, sc.Err()
}
