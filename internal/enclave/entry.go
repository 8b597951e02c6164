// Package enclave implements SecureKeeper's two trusted components
// (§4): the per-client entry enclave, which translates between
// plaintext client messages and storage-encrypted replica messages (the
// paper also ends the client's secure channel in it; here the channel
// still ends in untrusted code in front of it), and the counter enclave
// on the leader, which performs the one piece of genuine data processing —
// merging the plaintext sequence number into the encrypted path name of
// sequential nodes.
//
// Both run as trusted code inside the simulated SGX runtime: their
// message transformations execute via ecalls with the copy-in/copy-out
// buffer contract of the paper's EDL interface (Listing 1), and the
// storage key reaches them only through remote attestation followed by
// sealing (§4.5), implemented in provision.go.
package enclave

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"unsafe"

	"securekeeper/internal/sgx"
	"securekeeper/internal/skcrypto"
	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
)

// Enclave code identities. The measurement of an enclave derives from
// its code identity; the key server releases the storage key only to
// these measurements.
const (
	EntryCodeIdentity   = "securekeeper/entry-enclave/v1"
	CounterCodeIdentity = "securekeeper/counter-enclave/v1"
)

// Enclave sizing (§6.5): the entry enclave's shared object is 436 KB
// and its total footprint ~580 KB; the counter enclave is 325 KB / 397 KB.
const (
	entryCodeBytes   = 436 << 10
	entryHeapBytes   = 96 << 10
	counterCodeBytes = 325 << 10
	counterHeapBytes = 24 << 10
)

// Ecall names, mirroring Listing 1. Each takes a packed buffer of
// messages (see ecallBuf.call).
const (
	EcallRequest  = "ec_request"
	EcallResponse = "ec_response"
	EcallSequence = "ec_sequence"
)

// Processing errors.
var (
	ErrNoPending         = errors.New("enclave: response without pending request")
	ErrKeyNotProvisioned = errors.New("enclave: storage key not provisioned")
	ErrMalformedBatch    = errors.New("enclave: malformed packed ecall buffer")
)

// pendingOp records one in-flight request in the entry enclave's FIFO
// queue (§4.2): responses carry no operation type, but the per-client
// FIFO ordering guarantees responses arrive in request order, so a
// queue of (xid, op) — and a GET's plaintext path — suffices to
// interpret them.
//
// The server's commit-processor split executes reads concurrently with
// pending writes, but it deliberately preserves this enclave's two
// serialization points: OnRequests (ecRequest per message) is always
// called from the session reader goroutine in submission order, and
// OnResponses (ecResponse per message) from the session writer
// goroutine in release order, which equals submission order. Execution
// order is decoupled; queue order is not.
// TestEnclaveResponseMatchingUnderPipelinedMixedOps and
// TestResponseXidOrder pin this contract.
type pendingOp struct {
	xid int32
	op  wire.OpCode
	// pathLen is the length of the plaintext path the request keeps in
	// the entry's path slab for its response: a GET's, which the
	// payload's binding is checked against; 0 for every other op.
	pathLen int
	// subs records a multi's sub-op codes, in order: the response
	// transformation trusts ONLY this enclave-recorded sequence (never
	// the replica's claimed result ops) to decide which results carry a
	// path to decrypt or a ciphertext length to adjust.
	subs []wire.OpCode
}

// Entry is the per-client entry enclave. Its exported methods are the
// untrusted wrapper; the trusted logic runs inside ecalls.
type Entry struct {
	enclave *sgx.Enclave
	runtime *sgx.Runtime

	// Untrusted state: the packed buffer the caller keeps for each of
	// the two ecalls, see ecallBuf. The one-message methods have theirs,
	// so they never overwrite what a batch call handed out.
	requests, responses     ecallBuf
	oneRequest, oneResponse ecallBuf

	// Trusted state (lives inside the ELRANGE conceptually): the
	// storage codec and the FIFO request queue, under the lock an ecall
	// holds for its whole batch. paths holds the paths the queued GETs
	// keep, in queue order, and behind them the path of the message
	// being rewritten (stagePath).
	keyed
	queue slab[pendingOp]
	paths slab[byte]
	// cacheCounters is where the codec's chunk caches count: the
	// enclave's own unless CountCacheIn named others.
	cacheCounters *skcrypto.CacheCounters
	// The codec's path rewrites in the shape wire.AppendToMapping
	// takes, bound once with the key rather than per message.
	encryptPath, decryptPath, decryptChild func(dst []byte, s string) ([]byte, error)
}

// NewEntry instantiates an entry enclave on the runtime. The storage
// key must be provisioned afterwards (Provision or UnsealFrom) before
// messages can be processed.
func NewEntry(rt *sgx.Runtime) (*Entry, error) {
	en := &Entry{runtime: rt, cacheCounters: new(skcrypto.CacheCounters)}
	spec := sgx.Spec{
		CodeIdentity: EntryCodeIdentity,
		CodeBytes:    entryCodeBytes,
		HeapBytes:    entryHeapBytes,
		Threads:      1,
		Ecalls: map[string]sgx.EcallFunc{
			EcallRequest:  en.ecBatch(en.ecRequest),
			EcallResponse: en.ecBatch(en.ecResponse),
		},
	}
	e, err := rt.Create(spec)
	if err != nil {
		return nil, fmt.Errorf("enclave: create entry: %w", err)
	}
	en.enclave = e
	return en, nil
}

// Enclave returns the underlying SGX enclave (for attestation and
// accounting).
func (en *Entry) Enclave() *sgx.Enclave { return en.enclave }

// Close destroys the enclave.
func (en *Entry) Close() { en.runtime.Destroy(en.enclave) }

// installKey sets the storage codec; called by the provisioning flow.
func (en *Entry) installKey(key []byte) error {
	en.mu.Lock()
	defer en.mu.Unlock()
	codec, err := skcrypto.NewCodecCounting(key, en.cacheCounters)
	if err != nil {
		return err
	}
	en.codec = codec
	en.encryptPath, en.decryptPath = codec.AppendEncryptedPath, codec.AppendDecryptedPath
	// Children are single path elements, not paths.
	en.decryptChild = codec.AppendDecryptedChunk
	return nil
}

// CountCacheIn makes the enclave's path-chunk caches count in c, which
// the entry enclaves of a host share (observability: counts leave the
// enclave, paths and chunks do not). It takes effect with the next key
// installed: call it before provisioning.
func (en *Entry) CountCacheIn(c *skcrypto.CacheCounters) {
	en.mu.Lock()
	defer en.mu.Unlock()
	en.cacheCounters = c
}

// GrowthHeadroom returns the extra buffer capacity the untrusted caller
// must pre-allocate before an ecall so the enclave can grow the message
// in place (§5.1): room for per-chunk path expansion, the payload
// binding hash and tag, and Base64 inflation.
func GrowthHeadroom(msgLen int) int {
	return msgLen/2 + 512
}

// ProcessRequests runs a burst of client requests (transport-plaintext
// bytes) through the entry enclave in one crossing and appends to out
// the storage-encrypted messages to inject into the replica pipeline.
// The outcome is what len(msgs) single calls would have produced: if
// the enclave rejects msgs[i], the rewritten msgs[:i] are appended,
// their requests are on the FIFO queue, and the error is returned.
//
// The appended messages lie in the buffer the entry keeps for this
// ecall (§5.1) and are the caller's until the next ProcessRequests or
// ProcessRequest call: the batch methods are for the one goroutine that
// owns a direction (the session's reader here, its releaser for
// responses), which copies what has to outlive its next call.
func (en *Entry) ProcessRequests(msgs, out [][]byte) ([][]byte, error) {
	en.requests.mu.Lock()
	defer en.requests.mu.Unlock()
	return en.requests.call(en.enclave, EcallRequest, msgs, out)
}

// ProcessResponses runs a burst of replica responses and watch events
// through the entry enclave in one crossing and appends to out the
// client-plaintext messages (still to be transport-encrypted by the
// secure channel). Errors and the lifetime of the appended messages are
// as for ProcessRequests, with the response direction's own buffer.
func (en *Entry) ProcessResponses(msgs, out [][]byte) ([][]byte, error) {
	en.responses.mu.Lock()
	defer en.responses.mu.Unlock()
	return en.responses.call(en.enclave, EcallResponse, msgs, out)
}

// ProcessRequest is the one-element case of ProcessRequests, with a
// result the caller owns; any number of goroutines may call it, and it
// leaves what the last ProcessRequests handed out alone.
func (en *Entry) ProcessRequest(msg []byte) ([]byte, error) {
	return en.oneRequest.callOne(en.enclave, EcallRequest, msg)
}

// ProcessResponse is the one-element case of ProcessResponses, as
// ProcessRequest is of ProcessRequests.
func (en *Entry) ProcessResponse(msg []byte) ([]byte, error) {
	return en.oneResponse.callOne(en.enclave, EcallResponse, msg)
}

// The packed ecall buffer, in both directions (integers big-endian):
//
//	u32 n | n × ( u32 cap | u32 len | cap bytes, the first len valid )
//
// Listing 1 passes one message in a buffer "slightly larger" than it so
// the enclave can grow it in place (§5.1); a slot is that buffer, cap =
// len + GrowthHeadroom(len), and the batch is n of them behind one
// [in,out] pointer. The trusted side rewrites each slot in place and
// its len; if slot i fails it sets n = i, so the caller gets back the
// slots that were finished.
const (
	batchHeaderLen = 4
	slotHeaderLen  = 8
)

// slotCap is the size of the slot the untrusted caller gives a message.
func slotCap(msgLen int) int { return msgLen + GrowthHeadroom(msgLen) }

// ecallBuf is the untrusted caller's side of one ecall: the packed
// buffer, which — as in Listing 1, where the caller allocates the buffer
// it passes — the caller keeps and reuses for its next call. mu admits
// one call at a time; what a call returns points into buf.
type ecallBuf struct {
	mu  sync.Mutex
	buf []byte
}

// call runs one ecall over msgs with the §5.1 pre-sized buffer
// contract, per slot, and appends to out the rewritten messages where
// the trusted side left them: slices of the slots, each capped at its
// length, valid until the next call. The caller holds mu.
//
// The buffer has the length a pooled one would have (sgx.BufSize), which
// is what the crossing's page-touch charge goes by. One grown past
// transport.MaxScratchRetain serves this call only (its results keep it
// alive for as long as the caller holds them), so a large burst cannot
// pin its size on the session for the connection's lifetime.
func (eb *ecallBuf) call(e *sgx.Enclave, name string, msgs, out [][]byte) ([][]byte, error) {
	if len(msgs) == 0 {
		return out, nil
	}
	total := batchHeaderLen
	for _, m := range msgs {
		total += slotHeaderLen + slotCap(len(m))
	}
	size := sgx.BufSize(total)
	if cap(eb.buf) < size {
		eb.buf = make([]byte, size)
	}
	buf := eb.buf[:size]
	if cap(buf) > transport.MaxScratchRetain {
		eb.buf = nil
	}
	binary.BigEndian.PutUint32(buf, uint32(len(msgs)))
	off := batchHeaderLen
	for _, m := range msgs {
		binary.BigEndian.PutUint32(buf[off:], uint32(slotCap(len(m))))
		binary.BigEndian.PutUint32(buf[off+4:], uint32(len(m)))
		copy(buf[off+slotHeaderLen:], m)
		off += slotHeaderLen + slotCap(len(m))
	}
	n, err := e.EcallBatch(name, buf, total, len(msgs))
	// Nothing was copied out unless the trusted side ran (n > 0); then
	// its count says how many slots it finished.
	done := 0
	if n > 0 {
		done = int(binary.BigEndian.Uint32(buf))
	}
	off = batchHeaderLen
	for _, m := range msgs[:done] {
		start := off + slotHeaderLen
		end := start + int(binary.BigEndian.Uint32(buf[off+4:]))
		out = append(out, buf[start:end:end])
		off = start + slotCap(len(m))
	}
	return out, err
}

// callOne is call on a batch of one, with both slices on the stack and
// the result copied out under mu, so it is the caller's to keep.
func (eb *ecallBuf) callOne(e *sgx.Enclave, name string, msg []byte) ([]byte, error) {
	var in, out [1][]byte
	in[0] = msg
	eb.mu.Lock()
	defer eb.mu.Unlock()
	res, err := eb.call(e, name, in[:], out[:0])
	if err != nil {
		return nil, err
	}
	return bytes.Clone(res[0]), nil
}

// --- trusted code (runs inside the enclave) ---

// keyed is the trusted state both enclaves have: the storage codec,
// which provisioning installs, and the lock every ecall holds for its
// whole batch.
type keyed struct {
	mu    sync.Mutex
	codec *skcrypto.Codec
}

// Provisioned reports whether the storage key has been installed.
func (k *keyed) Provisioned() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.codec != nil
}

// ecBatch returns the trusted entry point of an ecall of either
// enclave: it runs transform on each slot of the packed buffer in turn,
// holding mu for the whole batch, and reports in the buffer's count how
// many slots it finished.
func (k *keyed) ecBatch(transform sgx.EcallFunc) sgx.EcallFunc {
	return func(buf []byte, msgLen int) (int, error) {
		k.mu.Lock()
		defer k.mu.Unlock()
		if k.codec == nil {
			return 0, ErrKeyNotProvisioned
		}
		if msgLen < batchHeaderLen {
			return 0, ErrMalformedBatch
		}
		done, err := eachSlot(buf[:msgLen:msgLen], transform)
		binary.BigEndian.PutUint32(buf, done)
		return msgLen, err
	}
}

// eachSlot walks a packed buffer, rewriting every slot and its length
// with transform, and returns how many slots were finished. Every count
// and length in the buffer is the untrusted caller's and is checked
// against the buffer's end before it is used; a slot that is malformed,
// or that transform rejects, ends the walk there.
func eachSlot(packed []byte, transform sgx.EcallFunc) (uint32, error) {
	n := binary.BigEndian.Uint32(packed)
	off := batchHeaderLen
	for i := uint32(0); i < n; i++ {
		if len(packed)-off < slotHeaderLen {
			return i, ErrMalformedBatch
		}
		size := binary.BigEndian.Uint32(packed[off:])
		used := binary.BigEndian.Uint32(packed[off+4:])
		off += slotHeaderLen
		if uint64(size) > uint64(len(packed)-off) || used > size {
			return i, ErrMalformedBatch
		}
		end := off + int(size)
		newLen, err := transform(packed[off:end:end], int(used))
		if err != nil {
			return i, err
		}
		binary.BigEndian.PutUint32(packed[off-4:], uint32(newLen))
		off = end
	}
	if off != len(packed) {
		return n, ErrMalformedBatch
	}
	return n, nil
}

// ecRequest is the trusted request-path transformation: deserialize the
// plaintext request, encrypt the sensitive fields (path and payload)
// towards the ZooKeeper data store, remember (xid, op) in the FIFO
// queue, and serialize the rewritten message. Called with mu held.
//
// The message is rewritten inside its slot, without an allocator
// (§5.1): header and request record are decoded onto this stack — the
// path into the enclave's path slab (stagePath), the payload of a
// CREATE or SET as an alias of the slot — and the same record is then
// serialized over the original from the slot's start, its path
// encrypted on the way in (AppendToMapping). The payload is first moved
// out of the growing front's way, see sealInHeadroom.
func (en *Entry) ecRequest(buf []byte, msgLen int) (int, error) {
	codec := en.codec
	msg := buf[:msgLen]

	var hdr wire.RequestHeader
	var d wire.Decoder
	d.Reset(msg)
	d.SetZeroCopy(true)
	if err := hdr.Deserialize(&d); err != nil {
		return 0, fmt.Errorf("enclave: request header: %w", err)
	}

	pend := pendingOp{xid: hdr.Xid, op: hdr.Op}
	e := wire.AppendToMapping(buf[:0], en.encryptPath)

	switch hdr.Op {
	case wire.OpCreate:
		var req wire.CreateRequest
		path := en.stagePath(&d, msg)
		if err := req.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: create body: %w", err)
		}
		req.Path = path
		var err error
		if req.Data, err = sealInHeadroom(codec, buf, path, req.Data, req.Flags&wire.FlagSequential != 0); err != nil {
			return 0, err
		}
		hdr.Serialize(&e)
		req.Serialize(&e)

	case wire.OpSetData:
		var req wire.SetDataRequest
		path := en.stagePath(&d, msg)
		if err := req.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: set body: %w", err)
		}
		req.Path = path
		// A SET rebinds the payload to the full plaintext path the
		// client addressed (including any sequence suffix).
		var err error
		if req.Data, err = sealInHeadroom(codec, buf, path, req.Data, false); err != nil {
			return 0, err
		}
		hdr.Serialize(&e)
		req.Serialize(&e)

	case wire.OpGetData, wire.OpExists, wire.OpGetChildren:
		var req wire.ReadRequest
		path := en.stagePath(&d, msg)
		if err := req.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: %s body: %w", hdr.Op, err)
		}
		req.Path = path
		if hdr.Op == wire.OpGetData {
			pend.pathLen = len(path)
		}
		hdr.Serialize(&e)
		req.Serialize(&e)

	case wire.OpDelete:
		var req wire.DeleteRequest
		path := en.stagePath(&d, msg)
		if err := req.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: delete body: %w", err)
		}
		req.Path = path
		hdr.Serialize(&e)
		req.Serialize(&e)

	case wire.OpSync:
		var req wire.SyncRequest
		path := en.stagePath(&d, msg)
		if err := req.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: sync body: %w", err)
		}
		req.Path = path
		hdr.Serialize(&e)
		req.Serialize(&e)

	case wire.OpMulti:
		// A multi is decoded into copies: several payloads cannot all be
		// staged in the one headroom.
		d.SetZeroCopy(false)
		var req wire.MultiRequest
		if err := req.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: multi body: %w", err)
		}
		// Every sub-op is rewritten exactly as its standalone
		// counterpart: path encryption always, payload encryption (bound
		// to the plaintext path) for create and set. The whole rewritten
		// transaction leaves the enclave in one message, so the replica
		// proposes ciphertext only.
		pend.subs = make([]wire.OpCode, len(req.Ops))
		for i := range req.Ops {
			sop := &req.Ops[i]
			pend.subs[i] = sop.Op
			if sop.Op == wire.OpCreate || sop.Op == wire.OpSetData {
				sequential := sop.Op == wire.OpCreate && sop.Flags&wire.FlagSequential != 0
				encData, err := codec.EncryptPayload(sop.Path, sop.Data, sequential)
				if err != nil {
					return 0, err
				}
				sop.Data = encData
			}
		}
		hdr.Serialize(&e)
		req.Serialize(&e)

	case wire.OpPing, wire.OpCloseSession, wire.OpServerStats, wire.OpReconfig:
		// No sensitive fields (membership ids and mesh addresses are
		// deployment topology, not client data); forward verbatim. Close,
		// stats and reconfig use regular xids, so their replies pop
		// ecResponse's FIFO and must be queued here; pings use the
		// reserved xid and skip it.
		if hdr.Op != wire.OpPing {
			en.enqueue(pend)
		}
		return msgLen, nil

	default:
		return 0, fmt.Errorf("enclave: unsupported op %s: %w", hdr.Op, wire.ErrUnimplemented.Error())
	}

	if err := e.Err(); err != nil {
		return 0, err
	}
	n, err := fitted(&e, buf)
	if err != nil {
		return 0, err
	}
	en.enqueue(pend)
	return n, nil
}

// enqueue puts a rewritten request on the FIFO queue, and with it the
// path stagePath left behind the kept ones if the request keeps it.
func (en *Entry) enqueue(pend pendingOp) {
	en.paths.push(pend.pathLen)
	en.queue.room(1)[0] = pend
	en.queue.push(1)
}

// stagePath copies the path that leads the record at d's position out
// of msg into the path slab, behind the paths kept there, and returns
// it; it is valid until the next stagePath. d is then re-aimed so that
// the record's Deserialize finds an empty path in its place — msg's
// four bytes in front of the record's next field are set to an empty
// string's length — and takes no string of its own. msg is the
// message being rewritten: its path has been read once it is staged.
// A path that does not decode leaves the error in d, for Deserialize.
func (en *Entry) stagePath(d *wire.Decoder, msg []byte) string {
	at := d.Offset()
	raw := d.ReadRaw(int(d.ReadInt32()))
	if d.Err() != nil {
		return ""
	}
	staged := en.paths.room(len(raw))
	copy(staged, raw)
	next := at + len(raw)
	binary.BigEndian.PutUint32(msg[next:], 0)
	d.Reset(msg[next:])
	d.SetZeroCopy(true)
	return unsafe.String(unsafe.SliceData(staged), len(staged))
}

// slab is a FIFO queue of Ts in one array that the enclave owns and
// reuses: the live Ts are buf[head:tail], a queue that empties starts
// again at the array's front, and the array is replaced only when the
// live Ts and a push together need more than half of it or less than a
// quarter of it. Its length therefore follows the Ts outstanding —
// twice what the last replacement needed — and never the Ts served.
// An array longer than transport.MaxScratchRetain serves only until the
// queue next empties.
type slab[T any] struct {
	buf        []T
	head, tail int
}

// room returns the n Ts behind the live ones, where a push of n puts
// them.
func (s *slab[T]) room(n int) []T {
	if s.head == s.tail && len(s.buf) > transport.MaxScratchRetain {
		s.buf = nil
	}
	if s.tail+n > len(s.buf) {
		live := s.buf[s.head:s.tail]
		if need := len(live) + n; 2*need > len(s.buf) || 4*need < len(s.buf) {
			buf := make([]T, 2*need)
			copy(buf, live)
			s.buf = buf
		} else {
			copy(s.buf, live)
			clear(s.buf[len(live):s.tail])
		}
		s.head, s.tail = 0, len(live)
	}
	return s.buf[s.tail : s.tail+n : s.tail+n]
}

// push makes the n Ts behind the live ones live.
func (s *slab[T]) push(n int) { s.tail += n }

// pop takes the n Ts at the front. They stay where they are until the
// next room.
func (s *slab[T]) pop(n int) []T {
	ts := s.buf[s.head : s.head+n : s.head+n]
	if s.head += n; s.head == s.tail {
		s.head, s.tail = 0, 0
	}
	return ts
}

// len reports the number of live Ts.
func (s *slab[T]) len() int { return s.tail - s.head }

// sealInHeadroom encrypts a request's payload, bound to plainPath, and
// returns the ciphertext. payload aliases the slot (zero-copy decode)
// and lies where the rewritten message's longer path will come to lie,
// so it is moved first: to the end of the slot, into the headroom the
// caller gave the message for exactly this growth, and sealed there —
// no allocator, as Listing 1 intends. Serializing the record then moves
// the ciphertext down behind the path. If the rewritten message fits
// the slot, its front ends before the staged ciphertext starts; if it
// does not fit, the encoder has left the slot and the ecall fails with
// ErrBufferOverflow, whatever the slot then holds.
func sealInHeadroom(codec *skcrypto.Codec, slot []byte, plainPath string, payload []byte, sequential bool) ([]byte, error) {
	ctLen := skcrypto.EncryptedPayloadLen(len(payload))
	if ctLen > len(slot) {
		return nil, sgx.ErrBufferOverflow
	}
	return codec.EncryptPayloadInto(slot[len(slot)-ctLen:], plainPath, payload, sequential)
}

// ecResponse is the trusted response-path transformation: deserialize
// the replica's reply, decrypt sensitive fields, verify payload↔path
// binding, and serialize the plaintext message for the client. Called
// with mu held. Like ecRequest it rewrites the message inside its slot;
// a response only ever shrinks.
func (en *Entry) ecResponse(buf []byte, msgLen int) (int, error) {
	codec := en.codec

	var hdr wire.ReplyHeader
	var d wire.Decoder
	d.Reset(buf[:msgLen])
	d.SetZeroCopy(true)
	if err := hdr.Deserialize(&d); err != nil {
		return 0, fmt.Errorf("enclave: reply header: %w", err)
	}
	e := wire.AppendToMapping(buf[:0], en.decryptPath)

	// Watch notifications bypass the FIFO queue: they carry the
	// reserved xid and an encrypted path that must be decrypted.
	if hdr.Xid == wire.WatcherEventXid {
		var ev wire.WatcherEvent
		if err := ev.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: watch event: %w", err)
		}
		hdr.Serialize(&e)
		ev.Serialize(&e)
		if err := e.Err(); err != nil {
			return 0, err
		}
		return fitted(&e, buf)
	}
	if hdr.Xid == wire.PingXid {
		return msgLen, nil
	}

	if en.queue.len() == 0 {
		return 0, ErrNoPending
	}
	// The popped slot is zeroed, so a multi's sub-op list is not kept
	// reachable in trusted memory. A GET's path stays in the slab until
	// the next request's is staged over it.
	popped := en.queue.pop(1)
	pend := popped[0]
	popped[0] = pendingOp{}
	path := en.paths.pop(pend.pathLen)

	if pend.xid != hdr.Xid {
		return 0, fmt.Errorf("enclave: FIFO violation: response xid %d, expected %d: %w",
			hdr.Xid, pend.xid, wire.ErrRuntimeInconsistency.Error())
	}
	if hdr.Err != wire.ErrOK {
		return msgLen, nil // error replies carry no body
	}

	switch pend.op {
	case wire.OpGetData:
		var resp wire.GetDataResponse
		if err := resp.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: get response: %w", err)
		}
		// resp.Data zero-copy aliases buf, which is this ecall's private
		// scratch: decrypt it in place, no intermediate ciphertext copy.
		// Serializing moves the plaintext down behind the header.
		plain, err := codec.DecryptPayloadInPlace(unsafe.String(unsafe.SliceData(path), len(path)), resp.Data)
		if err != nil {
			// Binding or HMAC failure: report integrity violation to
			// the client instead of tampered data (§7.1).
			return integrityReply(buf, hdr)
		}
		resp.Data = plain
		// Surface the plaintext length, not the ciphertext length the
		// untrusted store tracks (§5.2).
		resp.Stat.DataLength = int32(len(plain))
		hdr.Serialize(&e)
		resp.Serialize(&e)

	case wire.OpCreate, wire.OpSync:
		// The path is staged as a request's is: its plaintext is written
		// over where its ciphertext lies.
		var resp wire.PathRecord
		path := en.stagePath(&d, buf[:msgLen])
		if err := resp.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: %s response: %w", pend.op, err)
		}
		resp.Path = path
		hdr.Serialize(&e)
		resp.Serialize(&e)

	case wire.OpGetChildren:
		var resp wire.GetChildrenResponse
		if err := resp.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: ls response: %w", err)
		}
		e = wire.AppendToMapping(buf[:0], en.decryptChild)
		hdr.Serialize(&e)
		resp.Serialize(&e)

	case wire.OpSetData, wire.OpExists:
		var resp wire.StatRecord
		if err := resp.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: %s response: %w", pend.op, err)
		}
		plainLength(&resp.Stat)
		hdr.Serialize(&e)
		resp.Serialize(&e)

	case wire.OpMulti:
		var resp wire.MultiResponse
		if err := resp.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: multi response: %w", err)
		}
		// The enclave-recorded sub-op queue is the ONLY trusted source
		// of each result's interpretation: a tampering replica that
		// relabels a result's op code (or reshapes the result array)
		// must not steer a created path or a ciphertext length past the
		// decryption/adjustment below.
		if len(resp.Results) != len(pend.subs) {
			return integrityReply(buf, hdr)
		}
		for i := range resp.Results {
			mr := &resp.Results[i]
			subOp := pend.subs[i]
			if mr.Op != subOp {
				return integrityReply(buf, hdr)
			}
			if mr.Err != wire.ErrOK {
				continue
			}
			switch subOp {
			case wire.OpCreate:
				plain, err := codec.DecryptPath(mr.Path)
				if err != nil {
					return integrityReply(buf, hdr)
				}
				mr.Path = plain
				plainLength(&mr.Stat)
			case wire.OpSetData, wire.OpCheck:
				plainLength(&mr.Stat)
			}
		}
		// Only created paths are ciphertext, and they are plaintext now.
		e = wire.AppendTo(buf[:0])
		hdr.Serialize(&e)
		resp.Serialize(&e)

	default:
		// DELETE and CLOSE responses carry no body; STAT's body has no
		// encrypted fields. All forward verbatim.
		return msgLen, nil
	}

	if e.Err() != nil {
		// A path or child name that does not decrypt.
		return integrityReply(buf, hdr)
	}
	return fitted(&e, buf)
}

// plainLength turns the length the untrusted store keeps for a node,
// its ciphertext's, into the plaintext's (§5.2). A length below the
// overhead every sealed payload carries is none the enclave wrote, and
// is passed on as it is: never a negative length.
func plainLength(st *wire.Stat) {
	if st.DataLength >= int32(skcrypto.PayloadOverhead) {
		st.DataLength -= int32(skcrypto.PayloadOverhead)
	}
}

// fitted ends a rewrite: the length of the message e serialized into
// slot, or ErrBufferOverflow if it outgrew the slot (and so left it).
func fitted(e *wire.Encoder, slot []byte) (int, error) {
	if e.Len() > len(slot) {
		return 0, sgx.ErrBufferOverflow
	}
	return e.Len(), nil
}

// integrityReply rewrites the response into an integrity-violation
// error so the client learns the store was tampered with, without ever
// seeing the tampered data.
func integrityReply(buf []byte, hdr wire.ReplyHeader) (int, error) {
	hdr.Err = wire.ErrIntegrity
	e := wire.AppendTo(buf[:0])
	hdr.Serialize(&e)
	return e.Len(), nil
}

// PendingDepth reports the FIFO queue length (observability; §6.5 notes
// it holds up to the async window of in-flight requests).
func (en *Entry) PendingDepth() int {
	en.mu.Lock()
	defer en.mu.Unlock()
	return en.queue.len()
}
