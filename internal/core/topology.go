package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"securekeeper/internal/zab"
)

// Topology is the typed description of an ensemble: which ids vote,
// which observe, and where each member's peer mesh listens. It replaces
// the parallel "-id/-peers" flag parsing that skserver, NodeConfig and
// the smoke scripts each did on their own — one spec string, parsed and
// validated once, reused everywhere.
type Topology struct {
	Voters    map[zab.PeerID]string
	Observers map[zab.PeerID]string
}

// ParseTopology parses an ensemble spec of ";"-separated members, each
// "id@host:port" for a voter or "id@host:port:observer" for an
// observer. Example:
//
//	1@127.0.0.1:7001;2@127.0.0.1:7002;3@127.0.0.1:7003;4@127.0.0.1:7004:observer
func ParseTopology(spec string) (Topology, error) {
	t := Topology{
		Voters:    make(map[zab.PeerID]string),
		Observers: make(map[zab.PeerID]string),
	}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		idStr, addr, ok := strings.Cut(part, "@")
		if !ok {
			return Topology{}, fmt.Errorf("core: topology member %q: want id@host:port[:observer]", part)
		}
		id, err := strconv.ParseInt(strings.TrimSpace(idStr), 10, 64)
		if err != nil || id <= 0 {
			return Topology{}, fmt.Errorf("core: topology member %q: bad id %q", part, idStr)
		}
		observer := false
		if rest, found := strings.CutSuffix(addr, ":observer"); found {
			observer = true
			addr = rest
		}
		addr = strings.TrimSpace(addr)
		if addr == "" || !strings.Contains(addr, ":") {
			return Topology{}, fmt.Errorf("core: topology member %q: bad address %q", part, addr)
		}
		pid := zab.PeerID(id)
		if _, dup := t.Voters[pid]; dup {
			return Topology{}, fmt.Errorf("core: topology: duplicate id %d", id)
		}
		if _, dup := t.Observers[pid]; dup {
			return Topology{}, fmt.Errorf("core: topology: duplicate id %d", id)
		}
		if observer {
			t.Observers[pid] = addr
		} else {
			t.Voters[pid] = addr
		}
	}
	return t, t.Validate()
}

// VoterTopology builds an all-voter topology from an id→address map.
func VoterTopology(peers map[zab.PeerID]string) Topology {
	t := Topology{
		Voters:    make(map[zab.PeerID]string, len(peers)),
		Observers: make(map[zab.PeerID]string),
	}
	for id, addr := range peers {
		t.Voters[id] = addr
	}
	return t
}

// Validate checks structural invariants: at least one voter, positive
// unique ids, non-empty addresses.
func (t Topology) Validate() error {
	if len(t.Voters) == 0 {
		return fmt.Errorf("core: topology has no voters")
	}
	for id, addr := range t.Voters {
		if id <= 0 {
			return fmt.Errorf("core: topology voter id %d must be positive", id)
		}
		if addr == "" {
			return fmt.Errorf("core: topology voter %d has no address", id)
		}
		if _, both := t.Observers[id]; both {
			return fmt.Errorf("core: topology id %d is both voter and observer", id)
		}
	}
	for id, addr := range t.Observers {
		if id <= 0 {
			return fmt.Errorf("core: topology observer id %d must be positive", id)
		}
		if addr == "" {
			return fmt.Errorf("core: topology observer %d has no address", id)
		}
	}
	return nil
}

// Size returns the total member count.
func (t Topology) Size() int { return len(t.Voters) + len(t.Observers) }

// Has reports whether id is a member (voter or observer).
func (t Topology) Has(id zab.PeerID) bool {
	_, v := t.Voters[id]
	_, o := t.Observers[id]
	return v || o
}

// IsObserver reports whether id is a non-voting member.
func (t Topology) IsObserver(id zab.PeerID) bool {
	_, ok := t.Observers[id]
	return ok
}

// Addr returns a member's mesh address ("" if unknown).
func (t Topology) Addr(id zab.PeerID) string {
	if a, ok := t.Voters[id]; ok {
		return a
	}
	return t.Observers[id]
}

// Addrs returns the id→address map over all members (the shape the
// mesh wants).
func (t Topology) Addrs() map[zab.PeerID]string {
	out := make(map[zab.PeerID]string, t.Size())
	for id, addr := range t.Voters {
		out[id] = addr
	}
	for id, addr := range t.Observers {
		out[id] = addr
	}
	return out
}

// ObserverSet returns the observer membership map (the shape the mesh
// handshake validates against).
func (t Topology) ObserverSet() map[zab.PeerID]bool {
	out := make(map[zab.PeerID]bool, len(t.Observers))
	for id := range t.Observers {
		out[id] = true
	}
	return out
}

// VoterIDs returns the voting member ids in ascending order.
func (t Topology) VoterIDs() []zab.PeerID { return sortedIDs(t.Voters) }

// ObserverIDs returns the observer ids in ascending order.
func (t Topology) ObserverIDs() []zab.PeerID { return sortedIDs(t.Observers) }

func sortedIDs(m map[zab.PeerID]string) []zab.PeerID {
	ids := make([]zab.PeerID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// String renders the canonical spec form, members in id order.
func (t Topology) String() string {
	ids := make([]zab.PeerID, 0, t.Size())
	ids = append(ids, t.VoterIDs()...)
	ids = append(ids, t.ObserverIDs()...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%d@%s", id, t.Addr(id))
		if t.IsObserver(id) {
			b.WriteString(":observer")
		}
	}
	return b.String()
}
