package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"securekeeper/internal/core"
	"securekeeper/internal/enclave"
	"securekeeper/internal/sgx"
	"securekeeper/internal/skcrypto"
	"securekeeper/internal/storage"
	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
	"securekeeper/internal/zabnet"
	"securekeeper/internal/ztree"
)

// The isolation replays time one layer's public functions on their own,
// fed with the workload's own op stream: what the layer costs when
// nothing else competes for the processor. Each replay warms up on the
// first n operations of session 0's stream and times the next n.

// replayOp is one operation of the stream made concrete, the way the
// session would issue it.
type replayOp struct {
	op    wire.OpCode
	path  string
	data  []byte // SET/CREATE: the payload; GET: the payload the key holds
	flags wire.CreateFlags
	seq   int32 // CREATE: the sequence number the leader would assign
}

func (o *replayOp) request() wire.Record {
	switch o.op {
	case wire.OpGetData:
		return &wire.GetDataRequest{Path: o.path}
	case wire.OpSetData:
		return &wire.SetDataRequest{Path: o.path, Data: o.data, Version: -1}
	case wire.OpCreate:
		return &wire.CreateRequest{Path: o.path, Data: o.data, Flags: o.flags}
	default:
		return &wire.DeleteRequest{Path: o.path, Version: -1}
	}
}

// replayStream makes session 0's first n ops concrete.
func replayStream(sp *spec, seed uint64, pool []byte, n int) []replayOp {
	ops := make([]op, n)
	newGenerator(sp, seed, 0).fill(ops)
	last := make([]int32, sp.half())
	for k := range last {
		last[k] = preloadOffset(0, k)
	}
	payload := func(off int32) []byte { return pool[off : off+payloadBytes] }
	var oldest, next int32 = 0, seqPreload
	out := make([]replayOp, n)
	for i, o := range ops {
		switch o.kind {
		case opGet:
			out[i] = replayOp{op: wire.OpGetData, path: sp.keyPath(0, int(o.key)), data: payload(last[o.key])}
		case opSet:
			last[o.key] = o.off
			out[i] = replayOp{op: wire.OpSetData, path: sp.keyPath(0, int(o.key)), data: payload(o.off)}
		case opCreateSeq:
			out[i] = replayOp{op: wire.OpCreate, path: seqPrefix(0), data: payload(o.off), flags: wire.FlagSequential, seq: next}
			next++
		case opDeleteOldest:
			out[i] = replayOp{op: wire.OpDelete, path: seqNode(0, oldest)}
			oldest++
		}
	}
	return out
}

// timed runs fn over the second half of ops after running it, untimed,
// over the first half, and returns the mean µs per op.
func timed(ops []replayOp, fn func(i int, o *replayOp) error) (float64, error) {
	half := len(ops) / 2
	for i := 0; i < half; i++ {
		if err := fn(i, &ops[i]); err != nil {
			return 0, err
		}
	}
	start := now()
	for i := half; i < len(ops); i++ {
		if err := fn(i, &ops[i]); err != nil {
			return 0, err
		}
	}
	return perOp(now()-start, len(ops)-half), nil
}

var replayKey = bytes.Repeat([]byte{0x3c}, skcrypto.KeySize)

// blank is the payload of the replays that only need its size.
var blank = make([]byte, payloadBytes)

// runReplays returns the isolation metrics of the workload's layers. A
// layer the workload does not pass through reports 0.
func runReplays(sp *spec, seed uint64, pool []byte, scratch string, n int) (map[string]float64, error) {
	m := map[string]float64{
		"wire.codec_us_per_op": 0, "skcrypto.path_us_per_op": 0, "skcrypto.payload_us_per_op": 0,
		"enclave.request_us_per_op": 0, "enclave.response_us_per_op": 0, "enclave.sequence_us_per_op": 0,
		"sgx.virtual_us_per_op": 0, "ztree.get_ns": 0, "ztree.set_apply_ns": 0,
		"zab.isolated_commit_us": 0, "zab.wirecodec_us_per_msg": 0, "zabnet.link_rtt_us": 0,
		"storage.isolated_record_us": 0, "storage.log_bytes_per_write": 0,
	}
	ops := replayStream(sp, seed, pool, 2*n)
	steps := []func(*spec, []replayOp, map[string]float64) error{replayWire, replayTree, replayZab}
	if sp.variant == core.SecureKeeper {
		steps = append(steps, replayCrypto, replayEnclave)
	}
	if sp.tcp {
		steps = append(steps, replayWireCodec, replayLink)
	}
	for _, step := range steps {
		if err := step(sp, ops, m); err != nil {
			return nil, err
		}
	}
	if sp.durable {
		if err := replayStorage(sp, ops, scratch, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// replayWire times the client's share of the wire codec: serialize each
// request, parse each reply.
func replayWire(_ *spec, ops []replayOp, m map[string]float64) error {
	replies := make([][]byte, len(ops))
	for i := range ops {
		o := &ops[i]
		hdr := wire.ReplyHeader{Xid: int32(i + 1), Zxid: int64(i + 1)}
		var body wire.Record
		switch o.op {
		case wire.OpGetData:
			body = &wire.GetDataResponse{Data: o.data, Stat: wire.Stat{DataLength: payloadBytes}}
		case wire.OpSetData:
			body = &wire.SetDataResponse{Stat: wire.Stat{DataLength: payloadBytes}}
		case wire.OpCreate:
			body = &wire.CreateResponse{Path: seqNode(0, o.seq)}
		}
		replies[i] = wire.MarshalPair(&hdr, body)
	}
	us, err := timed(ops, func(i int, o *replayOp) error {
		hdr := wire.RequestHeader{Xid: int32(i + 1), Op: o.op}
		e := wire.GetEncoder()
		hdr.Serialize(e)
		o.request().Serialize(e)
		wire.PutEncoder(e)

		var reply wire.ReplyHeader
		d := wire.NewDecoder(replies[i])
		if err := reply.Deserialize(d); err != nil {
			return err
		}
		if rec := wire.ResponseBody(o.op); rec != nil {
			return wire.Unmarshal(replies[i][d.Offset():], rec)
		}
		return nil
	})
	m["wire.codec_us_per_op"] = us
	return err
}

// replayCrypto times the storage codec on the stream's paths and
// payloads, through one codec with its chunk caches, as one entry
// enclave would use it.
func replayCrypto(_ *spec, ops []replayOp, m map[string]float64) error {
	codec, err := skcrypto.NewCodec(replayKey)
	if err != nil {
		return err
	}
	stored := make([][]byte, len(ops))
	for i := range ops {
		if o := &ops[i]; o.op == wire.OpGetData {
			if stored[i], err = codec.EncryptPayload(o.path, o.data, false); err != nil {
				return err
			}
		}
	}
	pathUs, err := timed(ops, func(_ int, o *replayOp) error {
		_, err := codec.EncryptPath(o.path)
		return err
	})
	if err != nil {
		return err
	}
	payloadUs, err := timed(ops, func(i int, o *replayOp) error {
		switch o.op {
		case wire.OpGetData:
			_, err := codec.DecryptPayload(o.path, stored[i])
			return err
		case wire.OpSetData, wire.OpCreate:
			_, err := codec.EncryptPayload(o.path, o.data, o.flags&wire.FlagSequential != 0)
			return err
		}
		return nil
	})
	m["skcrypto.path_us_per_op"], m["skcrypto.payload_us_per_op"] = pathUs, payloadUs
	return err
}

// replayEnclave runs the stream through a provisioned entry enclave of
// its own (and the sequential creates through a counter enclave),
// answering each request the way a replica would. The runtime applies
// the simulated SGX costs as real time, as the workloads do; its meter
// gives the virtual time exactly.
func replayEnclave(_ *spec, ops []replayOp, m map[string]float64) error {
	rt := sgx.NewRuntime(sgx.EPCUsableBytes, sgx.DefaultCostModel(), true)
	ks, err := enclave.NewKeyServerWithKey(replayKey,
		sgx.MeasureCode(enclave.EntryCodeIdentity), sgx.MeasureCode(enclave.CounterCodeIdentity))
	if err != nil {
		return err
	}
	ks.TrustPlatform(rt.QuoteVerificationKey())
	entry, err := enclave.NewEntry(rt)
	if err != nil {
		return err
	}
	defer entry.Close()
	if err := enclave.ProvisionEntry(entry, ks, nil); err != nil {
		return err
	}
	counter, err := enclave.NewCounter(rt)
	if err != nil {
		return err
	}
	defer counter.Close()
	if err := enclave.ProvisionCounter(counter, ks, nil); err != nil {
		return err
	}
	codec, err := skcrypto.NewCodec(replayKey)
	if err != nil {
		return err
	}

	var reqNs, respNs, seqNs int64
	var virtual0 float64
	half := len(ops) / 2
	for i := range ops {
		if i == half {
			reqNs, respNs, seqNs = 0, 0, 0
			virtual0 = rt.Meter().VirtualNs()
		}
		o := &ops[i]
		xid := int32(i + 1)
		plain := wire.MarshalPair(&wire.RequestHeader{Xid: xid, Op: o.op}, o.request())
		t0 := now()
		stored, err := entry.ProcessRequest(plain)
		reqNs += now() - t0
		if err != nil {
			return err
		}

		reply := wire.ReplyHeader{Xid: xid, Zxid: int64(xid)}
		var body wire.Record
		switch o.op {
		case wire.OpGetData:
			ct, err := codec.EncryptPayload(o.path, o.data, false)
			if err != nil {
				return err
			}
			body = &wire.GetDataResponse{Data: ct, Stat: wire.Stat{DataLength: int32(len(ct))}}
		case wire.OpSetData:
			body = &wire.SetDataResponse{Stat: wire.Stat{DataLength: payloadBytes + skcrypto.PayloadOverhead}}
		case wire.OpCreate:
			var hdr wire.RequestHeader
			var req wire.CreateRequest
			d := wire.NewDecoder(stored)
			if err := hdr.Deserialize(d); err != nil {
				return err
			}
			if err := req.Deserialize(d); err != nil {
				return err
			}
			t0 := now()
			created, err := counter.AppendSequence(req.Path, o.seq)
			seqNs += now() - t0
			if err != nil {
				return err
			}
			body = &wire.CreateResponse{Path: created}
		}
		fromReplica := wire.MarshalPair(&reply, body)
		t0 = now()
		toClient, err := entry.ProcessResponse(fromReplica)
		respNs += now() - t0
		if err != nil {
			return err
		}
		if o.op == wire.OpGetData {
			var hdr wire.ReplyHeader
			var got wire.GetDataResponse
			d := wire.NewDecoder(toClient)
			if err := hdr.Deserialize(d); err != nil {
				return err
			}
			if err := got.Deserialize(d); err != nil || !bytes.Equal(got.Data, o.data) {
				return errors.New("entry enclave replay: GET did not decrypt to the stored payload")
			}
		}
	}
	n := len(ops) - half
	m["enclave.request_us_per_op"] = perOp(reqNs, n)
	m["enclave.response_us_per_op"] = perOp(respNs, n)
	m["enclave.sequence_us_per_op"] = perOp(seqNs, n)
	m["sgx.virtual_us_per_op"] = (rt.Meter().VirtualNs() - virtual0) / float64(n) / 1e3
	return nil
}

// replayTree times a bare tree holding the session's keys: the GETs of
// the stream as reference reads, its SETs as applied transactions.
func replayTree(sp *spec, ops []replayOp, m map[string]float64) error {
	tree := ztree.New()
	zxid := int64(0)
	create := func(path string, data []byte) error {
		zxid++
		_, err := tree.Create(path, data, 0, 0, zxid)
		return err
	}
	if err := create("/bench", nil); err != nil {
		return err
	}
	for i := 0; i < sp.parents; i++ {
		if err := create(parentPath(i), nil); err != nil {
			return err
		}
	}
	for k := 0; k < sp.half(); k++ {
		if err := create(sp.keyPath(0, k), blank); err != nil {
			return err
		}
	}
	var gets, sets int
	var getNs, setNs int64
	for i := range ops {
		o := &ops[i]
		switch o.op {
		case wire.OpGetData:
			t0 := now()
			_, _, err := tree.GetDataRef(o.path)
			getNs += now() - t0
			if err != nil {
				return err
			}
			gets++
		case wire.OpSetData:
			zxid++
			txn := ztree.Txn{Zxid: zxid, Type: ztree.TxnSetData, Path: o.path, Data: o.data, Version: -1}
			t0 := now()
			res := tree.Apply(&txn)
			setNs += now() - t0
			if res.Err != wire.ErrOK {
				return fmt.Errorf("tree replay: set %s: %v", o.path, res.Err)
			}
			sets++
		}
	}
	m["ztree.get_ns"] = ratio(float64(getNs), float64(gets))
	m["ztree.set_apply_ns"] = ratio(float64(setNs), float64(sets))
	return nil
}

// replayZab commits payload-sized transactions through three bare peers
// on the in-process network, as many outstanding as the workload's two
// sessions keep, and times submit to delivery on the leader.
func replayZab(sp *spec, ops []replayOp, m map[string]float64) error {
	network := zab.NewNetwork()
	defer network.Close()
	ids := []zab.PeerID{1, 2, 3}
	delivered := make(chan int64, 4*numSessions*sp.window)
	peers := make([]*zab.Peer, len(ids))
	for i, id := range ids {
		id := id
		peers[i] = zab.NewPeer(zab.Config{
			ID: id, Peers: ids, Transport: network.Endpoint(id),
			Deliver: func(c zab.Committed) {
				if c.Origin.Peer == id {
					delivered <- c.Origin.Session
				}
			},
			Snapshot:        func() *ztree.Snapshot { return &ztree.Snapshot{} },
			Restore:         func(*ztree.Snapshot) {},
			TickInterval:    tickInterval,
			ElectionTimeout: electionTimeout,
		})
		peers[i].Start()
		defer peers[i].Stop()
	}
	var leader *zab.Peer
	for deadline := time.Now().Add(10 * time.Second); leader == nil; time.Sleep(time.Millisecond) {
		for _, p := range peers {
			if p.Role() == zab.RoleLeading {
				leader = p
			}
		}
		if time.Now().After(deadline) {
			return errors.New("zab replay: no leader")
		}
	}

	window := numSessions * sp.window
	starts := make([]int64, len(ops))
	var total int64
	counted := 0
	half := len(ops) / 2
	complete := func() {
		i := <-delivered
		if i >= int64(half) {
			total += now() - starts[i]
			counted++
		}
	}
	inflight := 0
	for i := range ops {
		if inflight == window {
			complete()
			inflight--
		}
		txn := ztree.Txn{Type: ztree.TxnSetData, Path: ops[i].path, Data: blank, Version: -1}
		starts[i] = now()
		// The session field carries the op's index back to Deliver.
		if err := leader.Submit(txn, zab.Origin{Peer: leader.ID(), Session: int64(i)}); err != nil {
			return fmt.Errorf("zab replay: %w", err)
		}
		inflight++
	}
	for ; inflight > 0; inflight-- {
		complete()
	}
	m["zab.isolated_commit_us"] = perOp(total, counted)
	return nil
}

// proposeMessage is a PROPOSE frame carrying one payload-sized SET.
func proposeMessage(o *replayOp, zxid int64) zab.Message {
	return zab.Message{Kind: zab.KindProposeBatch, Epoch: 1, Zxid: zxid, Batch: []zab.ProposalRecord{{
		Txn:    ztree.Txn{Zxid: zxid, Type: ztree.TxnSetData, Path: o.path, Data: blank, Version: -1},
		Origin: zab.Origin{Peer: 1, Session: 1, Xid: int32(zxid)},
	}}}
}

// replayWireCodec times serializing and parsing a PROPOSE frame.
func replayWireCodec(_ *spec, ops []replayOp, m map[string]float64) error {
	us, err := timed(ops, func(i int, o *replayOp) error {
		msg := proposeMessage(o, int64(i+1))
		e := wire.GetEncoder()
		msg.Serialize(e)
		var back zab.Message
		err := back.Deserialize(wire.NewDecoder(e.Bytes()))
		wire.PutEncoder(e)
		return err
	})
	m["zab.wirecodec_us_per_msg"] = us
	return err
}

// replayLink times a PROPOSE frame across one attested, encrypted mesh
// link on the loopback interface and a same-sized frame back.
func replayLink(_ *spec, ops []replayOp, m map[string]float64) error {
	signer := sgx.NewSeededQuoteSigner(replayKey, "benchmark-link-replay")
	listeners := map[zab.PeerID]net.Listener{}
	addrs := map[zab.PeerID]string{}
	for _, id := range []zab.PeerID{1, 2} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		listeners[id], addrs[id] = ln, ln.Addr().String()
	}
	meshes := map[zab.PeerID]*zabnet.Mesh{}
	for id, ln := range listeners {
		identity, err := transport.NewIdentity()
		if err != nil {
			return err
		}
		mesh, err := zabnet.NewMesh(zabnet.Config{
			ID: id, Peers: addrs, Listener: ln,
			Secure: &zabnet.SecureConfig{Signer: signer, Identity: identity},
		})
		if err != nil {
			return err
		}
		defer mesh.Close()
		meshes[id] = mesh
	}
	a, b := meshes[1], meshes[2]
	for deadline := time.Now().Add(10 * time.Second); !a.Connected(2) || !b.Connected(1); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return errors.New("link replay: meshes did not connect")
		}
	}

	stop := make(chan struct{})
	var echo sync.WaitGroup
	echo.Add(1)
	go func() {
		defer echo.Done()
		for {
			select {
			case msg := <-b.Receive():
				_ = b.Send(1, msg)
			case <-stop:
				return
			}
		}
	}()
	defer func() { close(stop); echo.Wait() }()

	us, err := timed(ops, func(i int, o *replayOp) error {
		if err := a.Send(2, proposeMessage(o, int64(i+1))); err != nil {
			return err
		}
		select {
		case <-a.Receive():
			return nil
		case <-time.After(5 * time.Second):
			return errors.New("link replay: no echo")
		}
	})
	m["zabnet.link_rtt_us"] = us
	return err
}

// replayStorage records the stream's SETs in a bare persister with the
// workload's device latency and as many outstanding as its two sessions
// keep, and times Record to the covering flush.
func replayStorage(sp *spec, ops []replayOp, scratch string, m map[string]float64) error {
	dir, err := os.MkdirTemp(scratch, "replay-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p, _, err := storage.Recover(storage.PersisterConfig{Dir: dir, Tree: ztree.New()})
	if err != nil {
		return err
	}
	p.StallFsync(deviceLatency)

	window := numSessions * sp.window
	done := make(chan int64, window)
	var total int64
	var failed error
	inflight, records := 0, 0
	for i := range ops {
		if inflight == window {
			total += <-done
			inflight--
		}
		txn := ztree.Txn{Zxid: int64(i + 1), Type: ztree.TxnSetData, Path: ops[i].path, Data: blank, Version: -1}
		start := now()
		p.Record(&txn, func(err error) {
			if err != nil {
				failed = err
			}
			done <- now() - start
		})
		inflight++
		records++
	}
	for ; inflight > 0; inflight-- {
		total += <-done
	}
	if err := p.Close(); err != nil {
		return err
	}
	if failed != nil {
		return failed
	}
	size, err := storage.DirSize(dir)
	if err != nil {
		return err
	}
	m["storage.isolated_record_us"] = perOp(total, records)
	m["storage.log_bytes_per_write"] = float64(size) / float64(records)
	return nil
}
