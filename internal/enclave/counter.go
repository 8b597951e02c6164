package enclave

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"securekeeper/internal/sgx"
	"securekeeper/internal/skcrypto"
	"securekeeper/internal/wire"
)

// Counter is the counter enclave (§4.4). It exists on every replica —
// any follower may become leader — but only processes requests on the
// current leader, during the creation of sequential nodes: it decrypts
// the entry-enclave-encrypted path name, appends the plaintext sequence
// number ZooKeeper determined, and re-encrypts the altered path.
//
// The sequence number is untrusted input from the ZooKeeper base code;
// the enclave validates it is a number but cannot validate its value,
// which is the naming-attack surface the paper documents in §7.1.
type Counter struct {
	enclave *sgx.Enclave
	runtime *sgx.Runtime

	// Untrusted state: the packed buffer AppendSequences keeps, see
	// ecallBuf, and, under its mu, the batch's messages, their ends in
	// the encoder and the replies of one crossing.
	sequences ecallBuf
	in, out   [][]byte
	ends      []int

	// Trusted state: the storage codec.
	keyed
}

// NewCounter instantiates a counter enclave on the runtime.
func NewCounter(rt *sgx.Runtime) (*Counter, error) {
	c := &Counter{runtime: rt}
	spec := sgx.Spec{
		CodeIdentity: CounterCodeIdentity,
		CodeBytes:    counterCodeBytes,
		HeapBytes:    counterHeapBytes,
		Threads:      1,
		Ecalls: map[string]sgx.EcallFunc{
			EcallSequence: c.ecBatch(c.ecSequence),
		},
	}
	e, err := rt.Create(spec)
	if err != nil {
		return nil, fmt.Errorf("enclave: create counter: %w", err)
	}
	c.enclave = e
	return c, nil
}

// Enclave returns the underlying SGX enclave.
func (c *Counter) Enclave() *sgx.Enclave { return c.enclave }

// Close destroys the enclave.
func (c *Counter) Close() { c.runtime.Destroy(c.enclave) }

// installKey sets the storage codec (provisioning flow).
func (c *Counter) installKey(key []byte) error {
	codec, err := skcrypto.NewCodec(key)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.codec = codec
	return nil
}

// CacheStats reports the counters of the enclave's path-chunk caches,
// zero until the key is provisioned.
func (c *Counter) CacheStats() (enc, dec skcrypto.CacheStats) {
	c.mu.Lock()
	codec := c.codec
	c.mu.Unlock()
	if codec == nil {
		return enc, dec
	}
	return codec.CacheStats()
}

// AppendSequences runs the counter enclave's single ecall over a batch
// of sequential names: paths[i] is the storage-encrypted path of a
// sequential create and seqs[i] the number the (untrusted) leader
// assigned it. For every i it replaces paths[i] with the encrypted path
// with the number merged into its final element, or sets errs[i] to why
// the enclave would not (paths[i] then stays as it was). The three
// slices have one length. The batch crosses once, packed into the
// buffer the enclave keeps; a slot the enclave refuses ends that
// crossing, and the slots after it cross again, so exactly the refused
// names fail.
func (c *Counter) AppendSequences(paths []string, seqs []int32, errs []error) {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	c.sequences.mu.Lock()
	defer c.sequences.mu.Unlock()
	ends := c.ends[:0]
	for i, p := range paths {
		e.WriteString(p)
		e.WriteInt32(seqs[i])
		ends = append(ends, e.Len())
	}
	in, start := c.in[:0], 0
	for _, end := range ends {
		in = append(in, e.Bytes()[start:end:end])
		start = end
	}
	for done := 0; done < len(paths); {
		out, err := c.sequences.call(c.enclave, EcallSequence, in[done:], c.out[:0])
		for _, res := range out {
			var d wire.Decoder
			d.Reset(res)
			path := d.ReadString()
			if err := d.Finish(nil); err != nil {
				errs[done] = fmt.Errorf("enclave: sequence reply: %w", err)
			} else {
				paths[done], errs[done] = path, nil
			}
			done++
		}
		clear(out)
		c.out = out[:0]
		if err != nil && done < len(paths) {
			errs[done] = err
			done++
		}
	}
	clear(in)
	c.in, c.ends = in[:0], ends[:0]
}

// AppendSequence is AppendSequences on a batch of one.
func (c *Counter) AppendSequence(encPath string, seq int32) (string, error) {
	paths, seqs, errs := [1]string{encPath}, [1]int32{seq}, [1]error{}
	c.AppendSequences(paths[:], seqs[:], errs[:])
	return paths[0], errs[0]
}

// ecSequence is the counter enclave's trusted code, run on each slot of
// the packed buffer with mu held: it rewrites the (path, number) message
// in its slot into the merged path. The name is merged where it lies
// (skcrypto.AppendSequencedPath): the parent's ciphertext stays in
// place behind the length, and only the final element is rewritten.
func (c *Counter) ecSequence(buf []byte, msgLen int) (int, error) {
	var d wire.Decoder
	d.Reset(buf[:msgLen])
	d.SetZeroCopy(true)
	encPath := d.ReadRaw(int(d.ReadInt32()))
	seq := d.ReadInt32()
	if d.Err() != nil {
		return 0, fmt.Errorf("enclave: sequence input: %w", d.Err())
	}
	if seq < 0 {
		// The value is attacker-controlled; a negative number would
		// break the fixed-width format convention.
		return 0, fmt.Errorf("enclave: negative sequence %d: %w", seq, wire.ErrBadArguments.Error())
	}
	const lenPrefix = 4
	merged, err := c.codec.AppendSequencedPath(buf[:lenPrefix], unsafe.String(unsafe.SliceData(encPath), len(encPath)), seq)
	if err != nil {
		return 0, err
	}
	if len(merged) > len(buf) {
		// The append left the slot.
		return 0, sgx.ErrBufferOverflow
	}
	binary.BigEndian.PutUint32(buf, uint32(len(merged)-lenPrefix))
	return len(merged), nil
}
