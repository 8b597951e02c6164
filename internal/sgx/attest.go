package sgx

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
)

// Attestation errors.
var (
	ErrQuoteInvalid          = errors.New("sgx: quote signature invalid")
	ErrMeasurementRejected   = errors.New("sgx: enclave measurement not trusted")
	ErrAttestationIncomplete = errors.New("sgx: attestation incomplete")
)

// quoteKey is the simulated Quoting Enclave signing identity. In real
// SGX, quotes chain to Intel's attestation service; here the runtime
// holds an Ed25519 key whose public half plays the role of Intel's
// root of trust.
type quoteKey struct {
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

func newQuoteKey() *quoteKey {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		// Key generation from crypto/rand failing is unrecoverable
		// program-startup misconfiguration.
		panic(fmt.Sprintf("sgx: quote key generation: %v", err))
	}
	return &quoteKey{priv: priv, pub: pub}
}

// QuoteSigner is a deterministic attestation identity shared by every
// replica of one deployment: the analogue of all platforms chaining to
// the same Intel attestation root. The signing key is derived from a
// deployment secret (the administrator's storage key, which §4.5 already
// distributes to exactly the attested enclaves), so possession of a
// valid quote proves the prover holds the deployment secret INSIDE code
// with the expected measurement — without ever putting the secret
// itself on the wire.
type QuoteSigner struct {
	key         quoteKey
	measurement Measurement
}

// NewSeededQuoteSigner derives the deployment attestation identity from
// a secret seed. The same (seed, codeIdentity) pair yields the same
// verification key on every replica; seed must have at least 32 bytes
// of entropy (it is hashed down to the Ed25519 seed).
func NewSeededQuoteSigner(seed []byte, codeIdentity string) *QuoteSigner {
	h := sha256.Sum256(append([]byte("sgx-seeded-qe-v1:"), seed...))
	priv := ed25519.NewKeyFromSeed(h[:])
	return &QuoteSigner{
		key:         quoteKey{priv: priv, pub: priv.Public().(ed25519.PublicKey)},
		measurement: MeasureCode(codeIdentity),
	}
}

// Quote produces attestation evidence binding reportData to the
// deployment's code measurement.
func (s *QuoteSigner) Quote(reportData []byte) *Quote {
	msg := quoteMessage(s.measurement, reportData)
	return &Quote{
		Measurement: s.measurement,
		ReportData:  append([]byte(nil), reportData...),
		Signature:   ed25519.Sign(s.key.priv, msg),
	}
}

// Measurement returns the code measurement quotes from this signer
// claim (and the one its Verify expects).
func (s *QuoteSigner) Measurement() Measurement { return s.measurement }

// Verify checks a peer's evidence against the deployment root and this
// deployment's expected measurement.
func (s *QuoteSigner) Verify(q *Quote) error {
	return VerifyQuote(s.key.pub, q, s.measurement)
}

// Quote is a remote-attestation evidence blob: it binds enclave-chosen
// report data (e.g. a key-exchange public key) to the enclave's
// measurement, signed by the platform.
type Quote struct {
	Measurement Measurement
	ReportData  []byte
	Signature   []byte
}

// QuoteVerificationKey returns the platform's quote-verification public
// key, the analogue of Intel's attestation root distributed out of band.
func (r *Runtime) QuoteVerificationKey() ed25519.PublicKey { return r.qeKey.pub }

// GenerateQuote produces attestation evidence for the enclave with the
// given report data.
func (e *Enclave) GenerateQuote(reportData []byte) *Quote {
	msg := quoteMessage(e.measurement, reportData)
	return &Quote{
		Measurement: e.measurement,
		ReportData:  append([]byte(nil), reportData...),
		Signature:   ed25519.Sign(e.runtime.qeKey.priv, msg),
	}
}

// VerifyQuote checks evidence against the platform key and an expected
// measurement. This is what the SecureKeeper administrator runs before
// releasing the storage key (§4.5).
func VerifyQuote(platformKey ed25519.PublicKey, q *Quote, expected Measurement) error {
	if q == nil {
		return ErrAttestationIncomplete
	}
	if q.Measurement != expected {
		return ErrMeasurementRejected
	}
	if !ed25519.Verify(platformKey, quoteMessage(q.Measurement, q.ReportData), q.Signature) {
		return ErrQuoteInvalid
	}
	return nil
}

func quoteMessage(m Measurement, reportData []byte) []byte {
	msg := make([]byte, 0, len(m)+len(reportData)+16)
	msg = append(msg, "sgx-quote-v1:"...)
	msg = append(msg, m[:]...)
	msg = append(msg, reportData...)
	return msg
}
