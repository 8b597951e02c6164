package main

// metricDef is a metric's entry in BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are what a client of the ensemble sees. Every workload
// reports all seven. Apart from setup_s, a run's value is the mean over
// the best quarter of its rounds (see summary.best).
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "write_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "write_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05},
}

// perLayerDefs are the single-layer numbers of a traced run, ordered
// from the client inwards. A layer the workload does not pass through
// reports 0.
var perLayerDefs = []metricDef{
	{Name: "client.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "wire.codec_us_per_op", Unit: "us", Better: "lower"},
	{Name: "transport.frame_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "transport.seal_open_us_per_op", Unit: "us", Better: "lower"},
	{Name: "enclave.request_us_per_op", Unit: "us", Better: "lower"},
	{Name: "enclave.response_us_per_op", Unit: "us", Better: "lower"},
	{Name: "enclave.sequence_us_per_op", Unit: "us", Better: "lower"},
	{Name: "enclave.ecalls_per_op", Unit: "count", Better: "lower"},
	{Name: "enclave.ecall_us", Unit: "us", Better: "lower"},
	{Name: "sgx.virtual_us_per_op", Unit: "us", Better: "lower"},
	{Name: "skcrypto.path_us_per_op", Unit: "us", Better: "lower"},
	{Name: "skcrypto.payload_us_per_op", Unit: "us", Better: "lower"},
	{Name: "server.read_rtt_us", Unit: "us", Better: "lower"},
	{Name: "server.submit_to_commit_us", Unit: "us", Better: "lower"},
	{Name: "server.apply_us", Unit: "us", Better: "lower"},
	{Name: "server.commit_to_release_us", Unit: "us", Better: "lower"},
	{Name: "ztree.get_ns", Unit: "ns", Better: "lower"},
	{Name: "ztree.set_apply_ns", Unit: "ns", Better: "lower"},
	{Name: "zab.propose_to_ack_us", Unit: "us", Better: "lower"},
	{Name: "zab.isolated_commit_us", Unit: "us", Better: "lower"},
	{Name: "zab.msgs_per_write", Unit: "count", Better: "lower"},
	{Name: "zab.bytes_per_write", Unit: "B", Better: "lower"},
	{Name: "zab.propose_frames_per_txn", Unit: "count", Better: "lower"},
	{Name: "zab.wirecodec_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "zabnet.link_rtt_us", Unit: "us", Better: "lower"},
	{Name: "zabnet.outbox_shed", Unit: "count", Better: "lower"},
	{Name: "storage.fsync_us", Unit: "us", Better: "lower"},
	{Name: "storage.flush_cycle_us", Unit: "us", Better: "lower"},
	{Name: "storage.commit_wait_us", Unit: "us", Better: "lower"},
	{Name: "storage.txns_per_fsync", Unit: "count", Better: "higher"},
	{Name: "storage.fsyncs_per_write", Unit: "count", Better: "lower"},
	{Name: "storage.log_bytes_per_write", Unit: "B", Better: "lower"},
	{Name: "storage.isolated_record_us", Unit: "us", Better: "lower"},
	{Name: "runtime.gc_pause_us_per_s", Unit: "us/s", Better: "lower"},
	{Name: "runtime.heap_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.goroutines", Unit: "count", Better: "lower"},
	{Name: "core.cluster_start_ms", Unit: "ms", Better: "lower"},
	{Name: "zab.election_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.preload_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.slow_round_share", Unit: "%", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.unexplained_us_per_op", Unit: "us", Better: "lower"},
}
