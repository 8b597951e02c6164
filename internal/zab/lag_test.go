package zab

import "testing"

// TestLeaderCommittedLagOnStalledObserver exercises the commit-lag
// signal exported through ServerStats: LeaderCommitted tracks the
// leader's commit bound even when the local peer cannot apply that far
// yet, and never reports less than what was applied locally.
func TestLeaderCommittedLagOnStalledObserver(t *testing.T) {
	schedule(t, 3, 1, func(s *sim) {
		l, op := s.elect(10), s.peer(4).core
		s.write(l, 5)
		s.awaitDelivered(5, 4, s.ids()...)
		applied := op.LastCommitted()
		// Converged: the observer's lag signal is zero.
		if got := op.LeaderCommitted(); got != applied {
			s.failf("converged observer: LeaderCommitted = %d, want %d", got, applied)
		}
		// Stall: the leader's announced bound runs ahead of what the
		// observer has applied — a frame of the stream was lost, so the
		// ping's bound finds a hole. LeaderCommitted must surface the
		// bound; the difference is the CommitLag that steers Nearest read
		// routing away from this replica.
		s.route = func(from, to PeerID, msg Message) int64 {
			if msg.Kind == KindObserverCommit || msg.Kind == KindSyncDiff || msg.Kind == KindSyncSnap {
				return -1
			}
			return 50_000
		}
		s.write(l, 3)
		s.await("the bound to run ahead of the observer", 4, func() bool { return op.LeaderCommitted() > applied })
		if got, want := op.LeaderCommitted(), l.core.LastCommitted(); got != want || op.LastCommitted() != applied {
			s.failf("stalled observer: LeaderCommitted = %#x (want %#x), LastCommitted = %#x (want %#x)", got, want, op.LastCommitted(), applied)
		}
		// A stale (lower) bound must never drag the signal below what was
		// applied locally: lag clamps at zero, it never goes negative.
		op.leaderBound.Store(applied - 3)
		if got := op.LeaderCommitted(); got != applied {
			s.failf("stale bound: LeaderCommitted = %d, want %d", got, applied)
		}
	})
}
