package zab

import "sort"

// commitLog is the committed history a peer keeps to answer diff syncs:
// a fixed ring of the last limit records, in ascending zxid order. A
// delivery overwrites the oldest slot in place, so the loop goroutine
// never grows or copies the log. A record holds its transaction's
// payload by reference (the same array the tree adopted); it is
// released when the ring comes round to the slot.
type commitLog struct {
	recs []ProposalRecord // ring storage, made with the peer
	head int              // slot of the oldest record held
	n    int              // records held
	// base is the zxid preceding the oldest record held: the earliest
	// frontier a diff can start from. Below it a peer syncs by snapshot.
	base int64
}

// append records a delivery; with the ring full the oldest record goes.
func (l *commitLog) append(rec ProposalRecord) {
	if l.n < len(l.recs) {
		l.recs[(l.head+l.n)%len(l.recs)] = rec
		l.n++
		return
	}
	l.base = l.recs[l.head].Txn.Zxid
	l.recs[l.head] = rec
	l.head = (l.head + 1) % len(l.recs)
}

// reset empties the log after a snapshot install at zxid.
func (l *commitLog) reset(zxid int64) {
	clear(l.recs) // let the payloads go
	l.head, l.n, l.base = 0, 0, zxid
}

// at returns the i-th oldest record held.
func (l *commitLog) at(i int) *ProposalRecord {
	return &l.recs[(l.head+i)%len(l.recs)]
}

// since returns a copy of the records after zxid, if the log still
// reaches back that far and zxid is a point of this history: the base,
// or the zxid of a record held.
func (l *commitLog) since(zxid int64) ([]ProposalRecord, bool) {
	if zxid < l.base {
		return nil, false
	}
	idx := sort.Search(l.n, func(i int) bool { return l.at(i).Txn.Zxid > zxid })
	if zxid != l.base && (idx == 0 || l.at(idx-1).Txn.Zxid != zxid) {
		return nil, false
	}
	out := make([]ProposalRecord, l.n-idx)
	for i := range out {
		out[i] = *l.at(idx + i)
	}
	return out, true
}
