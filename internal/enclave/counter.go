package enclave

import (
	"fmt"

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

	// Untrusted state: the packed buffer AppendSequence keeps, see
	// ecallBuf.
	sequences ecallBuf

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

// AppendSequence runs the counter enclave's single ecall: given the
// storage-encrypted path of a sequential create and the sequence number
// assigned by the (untrusted) leader, it returns the encrypted path
// with the number merged into the final element. The message crosses
// as a batch of one in the buffer the enclave keeps.
func (c *Counter) AppendSequence(encPath string, seq int32) (string, error) {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.WriteString(encPath)
	e.WriteInt32(seq)
	var in, out [1][]byte
	in[0] = e.Bytes()
	c.sequences.mu.Lock()
	defer c.sequences.mu.Unlock()
	res, err := c.sequences.call(c.enclave, EcallSequence, in[:], out[:0])
	if err != nil {
		return "", err
	}
	var d wire.Decoder
	d.Reset(res[0])
	if path := d.ReadString(); d.Err() == nil {
		return path, nil
	}
	return "", fmt.Errorf("enclave: sequence reply: %w", d.Err())
}

// ecSequence is the counter enclave's trusted code, run on each slot of
// the packed buffer with mu held: it rewrites the (path, number) message
// in its slot into the merged path.
func (c *Counter) ecSequence(buf []byte, msgLen int) (int, error) {
	var d wire.Decoder
	d.Reset(buf[:msgLen])
	encPath, seq := d.ReadString(), d.ReadInt32()
	if d.Err() != nil {
		return 0, fmt.Errorf("enclave: sequence input: %w", d.Err())
	}
	if seq < 0 {
		// The value is attacker-controlled; a negative number would
		// break the fixed-width format convention.
		return 0, fmt.Errorf("enclave: negative sequence %d: %w", seq, wire.ErrBadArguments.Error())
	}
	newPath, err := c.codec.AppendSequenceToPath(encPath, seq)
	if err != nil {
		return 0, err
	}
	e := wire.AppendTo(buf[:0])
	e.WriteString(newPath)
	return fitted(&e, buf)
}
