package obs

import "testing"

// TestObserveAllocations holds the hot-path contract the whole
// instrumentation layer rests on: Observe allocates nothing, so
// stamping every request through half a dozen histograms adds no
// allocation to the paper's request paths. 10 000 Observes scattered
// over the buckets make no object at all.
func TestObserveAllocations(t *testing.T) {
	h := NewRegistry().Histogram("alloc_seconds", "", "allocation test histogram")
	v := int64(1)
	got := testing.AllocsPerRun(1, func() {
		for i := 0; i < 10_000; i++ {
			h.Observe(v)
			v = (v * 2654435761) % (1 << 30)
		}
	})
	if got != 0 {
		t.Fatalf("10000 Observes allocated %v objects, want 0", got)
	}
}

// BenchmarkObsHistogram times Observe from GOMAXPROCS goroutines at
// once: a handful of nanoseconds, allocation-free
// (TestObserveAllocations).
func BenchmarkObsHistogram(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", "", "benchmark histogram")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(1)
		for pb.Next() {
			h.Observe(v)
			v = (v * 2654435761) % (1 << 30) // scatter across buckets
		}
	})
	if s := h.Snapshot(); s.Count != int64(b.N) {
		b.Fatalf("count = %d, want %d", s.Count, b.N)
	}
}

// BenchmarkObsCounter keeps the cheaper instruments honest too.
func BenchmarkObsCounter(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "", "benchmark counter")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

// BenchmarkObsNow pins the timestamp cost the stamps pay.
func BenchmarkObsNow(b *testing.B) {
	b.ReportAllocs()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink = Now()
	}
	_ = sink
}
