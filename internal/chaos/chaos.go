// Package chaos is the fault-injection subsystem: a deterministic,
// seed-replayable injector that hooks the stack at its natural seams
// and a scenario runner that drives coordination-recipe workloads
// through fault schedules while recording a history that per-recipe
// safety checkers verify afterwards.
//
// The paper's fault-tolerance experiment (Fig 12) kills one replica
// and watches throughput; this package asserts the properties clients
// actually depend on while replicas die, links rot and partitions
// split the ensemble:
//
//   - network faults: a transport shim over zab.Transport imposes
//     message drop, added latency/jitter, and symmetric or asymmetric
//     partitions with heal — the in-process counterpart of tc/netem;
//   - process faults: replica crash (kill) and restart, including
//     leader churn: the controller holds the core.Cluster and calls its
//     StopReplica/RestartReplica;
//   - storage faults: fsync stalls and sticky persistence failures on
//     the write-ahead log, exercising the replica's degraded
//     read-only mode.
//
// Determinism contract: the fault SCHEDULE — which faults fire, their
// parameters and their relative times — is a pure function of
// (seed, profile, duration); Plan with the same inputs yields the
// identical Schedule, which is what `skchaos -seed N` replays.
// Per-message decisions (which particular frame a 5% drop rate eats)
// additionally depend on runtime interleaving and are deliberately
// outside the contract: the protocol under test is asynchronous, so
// pinning message-level timing would only test the simulator.
package chaos
