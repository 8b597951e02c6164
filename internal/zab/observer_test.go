package zab

import "testing"

func TestObserverTailsCommittedStream(t *testing.T) {
	schedule(t, 3, 1, func(s *sim) {
		l, obs := s.elect(10), s.peer(4)
		// Write until the dedicated observer stream carries commits: once
		// the observer is synced, every run streams.
		n := 0
		s.await("OBSERVERCOMMIT frames from the leader", 10, func() bool {
			s.write(l, 1)
			n++
			return l.core.StatsSnapshot().ObserverFrames > 0
		})
		// The observer converges with the voters.
		s.awaitDelivered(n, 4, s.ids()...)
		s.sameLog(n, s.ids()...)
		if obs.core.Role() != RoleObserving || obs.core.Leader() != l.id {
			s.failf("observer is %s of %d", obs.core.Role(), obs.core.Leader())
		}
		if obs.core.StatsSnapshot().ObserverFrames == 0 {
			s.failf("observer received no OBSERVERCOMMIT frames")
		}
	})
}

func TestObserverNeverVotesOrEntersQuorum(t *testing.T) {
	schedule(t, 3, 1, func(s *sim) {
		l, obs := s.elect(10), s.peer(4)
		s.write(l, 1)
		s.awaitDelivered(1, 4, s.ids()...)

		// Quorum math is derived from voters alone.
		if got := l.core.quorum(); got != 2 {
			s.failf("quorum = %d, want 2 (observers must not widen it)", got)
		}
		// The observer held no election and never left OBSERVING.
		if e := obs.core.StatsSnapshot().Elections; e != 0 || obs.core.Role() != RoleObserving {
			s.failf("observer ran %d elections, role %s", e, obs.core.Role())
		}
		// Its row on the leader carries obsSynced and nothing a quorum reads.
		if row := l.core.member(4); row.synced || !row.obsSynced || row.vote != (vote{}) || row.voter || row.acked != 0 {
			s.failf("the leader's row for the observer: %+v", *row)
		}
	})
}

func TestObserverDoesNotKeepDeadEnsembleAlive(t *testing.T) {
	// 2 voters + 1 observer: quorum is 2, so losing one voter kills the
	// ensemble no matter how alive the observer is. If observers counted
	// anywhere, the leader would wrongly stay active.
	schedule(t, 2, 1, func(s *sim) {
		l, obs := s.elect(10), s.peer(3)
		s.write(l, 1)
		s.awaitDelivered(1, 4, s.ids()...)
		for _, p := range s.others(l) {
			if p != obs {
				s.crash(p)
			}
		}
		// The leader must abdicate (no voter quorum) and the observer must
		// detach (leader -1), not elect.
		s.await("the leader to abdicate and the observer to detach", failover, func() bool {
			return l.core.Role() == RoleLooking && obs.core.Role() == RoleObserving && obs.core.Leader() == -1
		})
		if e := obs.core.StatsSnapshot().Elections; e != 0 {
			s.failf("observer ran %d elections after quorum loss", e)
		}
	})
}

func TestObserverCrashDoesNotBlockCommitsOrElect(t *testing.T) {
	schedule(t, 3, 1, func(s *sim) {
		l := s.elect(10)
		s.write(l, 1)
		s.awaitDelivered(1, 4, s.ids()...)
		elections := l.core.StatsSnapshot().Elections
		s.crash(s.peer(4))

		// Commits keep flowing and the leader never re-elects.
		for i := 0; i < 20; i++ {
			s.write(l, 1)
			s.idle(1)
		}
		s.awaitDelivered(21, 4, 1, 2, 3)
		s.idle(simElection / simTick)
		if l.core.Role() != RoleLeading || l.core.StatsSnapshot().Elections != elections {
			s.failf("observer crash disturbed the leader: role %s, %d elections", l.core.Role(), l.core.StatsSnapshot().Elections-elections)
		}
	})
}

func TestLateObserverSnapshotSyncsThenTails(t *testing.T) {
	// Voters commit more history than the log keeps for a diff; then the
	// observer joins cold, converges by snapshot, and tails live commits.
	schedule(t, 3, 1, func(s *sim) {
		obs := s.peer(4)
		s.isolate(obs, true) // dark while history accrues
		s.await("a leader with a synced quorum", 10, func() bool { return s.leaderNow() != nil })
		l := s.leaderNow()
		for i := 0; i < 40; i++ {
			s.write(l, 1)
			s.idle(1)
		}
		s.awaitDelivered(40, 4, 1, 2, 3)
		s.isolate(obs, false)
		s.awaitDelivered(40, failover, obs.id)
		if obs.core.StatsSnapshot().Resyncs == 0 {
			s.failf("the observer converged without a sync")
		}
		for i := 0; i < 10; i++ {
			s.write(l, 1)
			s.idle(1)
		}
		s.awaitDelivered(50, 4, s.ids()...)
		s.sameLog(50, s.ids()...)
	})
}

func TestObserverAdoptsNewLeaderAfterFailover(t *testing.T) {
	schedule(t, 3, 1, func(s *sim) {
		old, obs := s.elect(10), s.peer(4)
		s.write(old, 1)
		s.awaitDelivered(1, 4, s.ids()...)
		s.crash(old)
		// A new leader emerges among the surviving voters; the observer
		// re-attaches to it and resumes the stream.
		next := s.elect(failover)
		if obs.core.Role() != RoleObserving || obs.core.Leader() != next.id {
			s.failf("observer is %s of %d, want OBSERVING of %d", obs.core.Role(), obs.core.Leader(), next.id)
		}
		s.write(next, 1)
		s.awaitDelivered(2, 4, obs.id, next.id)
	})
}
