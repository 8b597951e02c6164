package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"securekeeper/internal/core"
	"securekeeper/internal/sgx"
)

// tinyScale keeps harness self-tests fast.
func tinyScale() Scale {
	s := QuickScale()
	s.Duration = 100 * time.Millisecond
	s.Warmup = 20 * time.Millisecond
	s.PayloadSweep = []int{0, 256}
	s.SmallSweep = []int{0, 50}
	s.SyncClients = 3
	s.AsyncClients = 1
	s.AsyncWindow = 16
	s.ClientSweep = []int{1, 2}
	s.ThreadSweep = []int{1}
	s.LsChildren = 4
	s.YCSBClients = 3
	return s
}

func TestEvaluatorRunAllModes(t *testing.T) {
	cluster, err := newCluster(core.Vanilla, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ev := NewEvaluator(cluster)
	for _, mode := range []OpMode{ModeMixed, ModeGet, ModeSet, ModeCreate, ModeCreateSeq, ModeDelete, ModeLs} {
		res, err := ev.Run(RunConfig{
			Clients:  2,
			Duration: 80 * time.Millisecond,
			Payload:  64,
			Mode:     mode,
			Children: 4,
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Ops == 0 {
			t.Errorf("%v: zero throughput", mode)
		}
		if res.Errors > res.Ops/10 {
			t.Errorf("%v: too many errors: %d/%d", mode, res.Errors, res.Ops)
		}
	}
}

func TestEvaluatorAsync(t *testing.T) {
	cluster, err := newCluster(core.Vanilla, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ev := NewEvaluator(cluster)
	res, err := ev.Run(RunConfig{
		Clients:  2,
		Async:    true,
		Window:   32,
		Duration: 100 * time.Millisecond,
		Payload:  64,
		Mode:     ModeMixed,
	})
	if err != nil || res.Ops == 0 {
		t.Fatalf("async run: %+v, %v", res, err)
	}
}

func TestFig3Shape(t *testing.T) {
	fig, err := Fig3(PagingConfig{SizesMB: []int{4, 64, 256}, Accesses: 20000})
	if err != nil {
		t.Fatal(err)
	}
	read := fig.Series[0]
	if len(read.Y) != 3 {
		t.Fatalf("series = %+v", read)
	}
	// The paper's shape: L3 >> DRAM >> paged EPC.
	l3, dram, paged := read.Y[0], read.Y[1], read.Y[2]
	if l3/dram < 4 || l3/dram > 8 {
		t.Errorf("L3/DRAM ratio = %.1f, want ~5.5", l3/dram)
	}
	if dram/paged < 20 {
		t.Errorf("DRAM/paged ratio = %.1f, want large (paging cliff)", dram/paged)
	}
	if l3/paged < 500 {
		t.Errorf("L3/paged ratio = %.1f, want >1000x-ish", l3/paged)
	}
	// Writes are at least as slow as reads beyond the EPC.
	write := fig.Series[1]
	if write.Y[2] > read.Y[2] {
		t.Errorf("paged writes (%f) faster than reads (%f)", write.Y[2], read.Y[2])
	}
}

func TestFig4Shape(t *testing.T) {
	fig, err := Fig4(KVSConfig{SizesMB: []int{4, 102, 512}, Requests: 5000})
	if err != nil {
		t.Fatal(err)
	}
	native, enclaved, normed := fig.Series[0], fig.Series[1], fig.Series[2]
	// Below the EPC: parity. Beyond: collapse.
	if normed.Y[0] > 1.05 {
		t.Errorf("small enclave normed diff = %.2f, want ~1", normed.Y[0])
	}
	if normed.Y[2] < 3 {
		t.Errorf("large enclave normed diff = %.2f, want >3 (collapse)", normed.Y[2])
	}
	if enclaved.Y[2] >= native.Y[2] {
		t.Error("SGX must be slower than native beyond the EPC")
	}
}

func TestFig2Memory(t *testing.T) {
	fig, err := Fig2(MemoryConfig{
		Clients:   2,
		Payload:   2048,
		SampleDur: 30 * time.Millisecond,
		Samples:   8,
		StartAt:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 { // 3 replicas + EPC reference
		t.Fatalf("series = %d", len(fig.Series))
	}
	// The EPC reference line is constant at the usable limit.
	epc := fig.Series[3]
	if epc.Y[0] != float64(sgx.EPCUsableBytes)/(1<<20) {
		t.Fatalf("EPC line = %f", epc.Y[0])
	}
}

func TestTable2(t *testing.T) {
	table, err := Table2("/a/b", 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	var sb strings.Builder
	table.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Transport", "Path", "Payload", "table2"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
}

func TestTable3CountsThisRepo(t *testing.T) {
	table, err := Table3("../..")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	table.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "Total trusted") || !strings.Contains(out, "Total untrusted") {
		t.Fatalf("missing totals:\n%s", out)
	}
	// The repo is far past trivial size by now.
	var total string
	for _, row := range table.Rows {
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
	entries, err := os.ReadDir("..")
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

func TestRenderFigure(t *testing.T) {
	fig := Figure{
		ID: "figX", Title: "test", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Name: "b", X: []float64{1, 3}, Y: []float64{30, 40}},
		},
	}
	var sb strings.Builder
	fig.Render(&sb)
	out := sb.String()
	for _, want := range []string{"figX", "a", "b", "10", "40", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestPercentFormat(t *testing.T) {
	if Percent(0.112) != "11.20 %" {
		t.Fatalf("Percent = %q", Percent(0.112))
	}
}

func TestOpModeStrings(t *testing.T) {
	for _, m := range []OpMode{ModeMixed, ModeGet, ModeSet, ModeCreate, ModeCreateSeq, ModeDelete, ModeLs} {
		if m.String() == "" || m.RowFor() == 0 && m != ModeMixed {
			t.Errorf("mode %d: string %q / row %v", m, m.String(), m.RowFor())
		}
	}
}

func TestMakePayloadDeterministic(t *testing.T) {
	a := makePayload(64, 1)
	b := makePayload(64, 1)
	c := makePayload(64, 2)
	if string(a) != string(b) {
		t.Fatal("payload not deterministic")
	}
	if string(a) == string(c) {
		t.Fatal("salt must vary payloads")
	}
	if makePayload(0, 0) != nil {
		t.Fatal("zero payload must be nil")
	}
}

func TestFig12FollowerFailure(t *testing.T) {
	// One variant only (Vanilla) at tiny scale to keep this test fast;
	// the full three-variant run is skbench fig12a/b.
	cfg := FaultConfig{
		Clients:    2,
		Window:     8,
		Payload:    128,
		BucketDur:  100 * time.Millisecond,
		Buckets:    6,
		KillBucket: 3,
		KillLeader: false,
		Replicas:   3,
	}
	c := cfg.withDefaults()
	series, err := runFaultRun(core.Vanilla, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Y) != 6 {
		t.Fatalf("buckets = %d", len(series.Y))
	}
	// Before the kill there must be throughput.
	if series.Y[1] == 0 && series.Y[2] == 0 {
		t.Fatal("no throughput before fault")
	}
	// After the kill the cluster keeps serving (follower failure: no gap).
	if series.Y[4] == 0 && series.Y[5] == 0 {
		t.Fatal("no throughput after follower failure")
	}
}

func TestLatencyPercentiles(t *testing.T) {
	cluster, err := newCluster(core.Vanilla, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	res, err := NewEvaluator(cluster).Run(RunConfig{
		Clients:  2,
		Duration: 150 * time.Millisecond,
		Mode:     ModeGet,
	})
	if err != nil {
		t.Fatal(err)
	}
	lat := res.Latency
	if lat.Samples == 0 {
		t.Fatal("no latency samples collected")
	}
	if lat.P50 <= 0 || lat.P95 < lat.P50 || lat.P99 < lat.P95 || lat.Max < lat.P99 {
		t.Fatalf("percentiles not ordered: %+v", lat)
	}
}

func TestLatencySamplerReservoir(t *testing.T) {
	ls := newLatencySampler(1)
	for i := 0; i < latencyReservoirSize*3; i++ {
		ls.observe(time.Duration(i))
	}
	s := ls.summary()
	if s.Samples != latencyReservoirSize {
		t.Fatalf("samples = %d, want %d (reservoir bound)", s.Samples, latencyReservoirSize)
	}
}
