// Package sigcrypto provides the digital-signature substrate assumed by the
// paper's model (Section 2.1): every process holds a key pair, knows every
// other process's public key, and the adversary cannot forge signatures of
// correct processes.
//
// Two interchangeable schemes are provided behind one interface:
//
//   - Ed25519Scheme: real signatures from crypto/ed25519, for deployments
//     and the TCP cluster.
//   - HMACScheme: deterministic keyed-hash "signatures" for the simulator
//     and property tests. They are not publicly verifiable cryptography (a
//     verifier holding the key registry can forge), but within the simulator
//     the registry plays the role of the trusted PKI, and determinism makes
//     experiments reproducible.
package sigcrypto

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	mathrand "math/rand"

	"repro/internal/types"
)

// Signature is a signature produced by some process over a message digest.
// It always carries the signer identity so that certificate sets can check
// distinctness.
type Signature struct {
	Signer types.ProcessID
	Bytes  []byte
}

// Clone returns an independent copy, preserving nil-ness of the byte slice
// (an absent signature stays absent).
func (s Signature) Clone() Signature {
	if s.Bytes == nil {
		return Signature{Signer: s.Signer}
	}
	b := make([]byte, len(s.Bytes))
	copy(b, s.Bytes)
	return Signature{Signer: s.Signer, Bytes: b}
}

// Signer signs messages on behalf of one process.
type Signer interface {
	// ID returns the process this signer signs for.
	ID() types.ProcessID
	// Sign signs msg.
	Sign(msg []byte) Signature
}

// Verifier verifies signatures from any process in the system.
type Verifier interface {
	// Verify reports whether sig is a valid signature by sig.Signer over msg.
	Verify(msg []byte, sig Signature) bool
}

// Scheme builds signers and a verifier for a fixed population of n
// processes.
type Scheme interface {
	// Signer returns the signer of process p.
	Signer(p types.ProcessID) Signer
	// Verifier returns the shared verifier.
	Verifier() Verifier
	// N returns the population size.
	N() int
}

// ---------------------------------------------------------------------------
// Ed25519
// ---------------------------------------------------------------------------

// Ed25519Scheme is a Scheme backed by crypto/ed25519.
type Ed25519Scheme struct {
	privs []ed25519.PrivateKey
	pubs  []ed25519.PublicKey
}

var _ Scheme = (*Ed25519Scheme)(nil)

// NewEd25519 generates fresh key pairs for n processes.
func NewEd25519(n int) (*Ed25519Scheme, error) {
	s := &Ed25519Scheme{
		privs: make([]ed25519.PrivateKey, n),
		pubs:  make([]ed25519.PublicKey, n),
	}
	for i := 0; i < n; i++ {
		pub, priv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("generate key %d: %w", i, err)
		}
		s.privs[i], s.pubs[i] = priv, pub
	}
	return s, nil
}

// NewEd25519Deterministic generates key pairs from a seeded stream, so that
// tests and benches can reproduce a cluster's identity.
func NewEd25519Deterministic(n int, seed int64) *Ed25519Scheme {
	rng := mathrand.New(mathrand.NewSource(seed))
	s := &Ed25519Scheme{
		privs: make([]ed25519.PrivateKey, n),
		pubs:  make([]ed25519.PublicKey, n),
	}
	for i := 0; i < n; i++ {
		seedBytes := make([]byte, ed25519.SeedSize)
		rng.Read(seedBytes)
		priv := ed25519.NewKeyFromSeed(seedBytes)
		s.privs[i] = priv
		pub, _ := priv.Public().(ed25519.PublicKey)
		s.pubs[i] = pub
	}
	return s
}

// N implements Scheme.
func (s *Ed25519Scheme) N() int { return len(s.privs) }

// Signer implements Scheme.
func (s *Ed25519Scheme) Signer(p types.ProcessID) Signer {
	return ed25519Signer{id: p, priv: s.privs[p]}
}

// Verifier implements Scheme.
func (s *Ed25519Scheme) Verifier() Verifier {
	return ed25519Verifier{pubs: s.pubs}
}

// PublicKeys exposes the registry (deep-copied) for wire-level
// authentication.
func (s *Ed25519Scheme) PublicKeys() []ed25519.PublicKey {
	out := make([]ed25519.PublicKey, len(s.pubs))
	for i, pub := range s.pubs {
		cp := make(ed25519.PublicKey, len(pub))
		copy(cp, pub)
		out[i] = cp
	}
	return out
}

type ed25519Signer struct {
	id   types.ProcessID
	priv ed25519.PrivateKey
}

func (s ed25519Signer) ID() types.ProcessID { return s.id }

func (s ed25519Signer) Sign(msg []byte) Signature {
	return Signature{Signer: s.id, Bytes: ed25519.Sign(s.priv, msg)}
}

type ed25519Verifier struct {
	pubs []ed25519.PublicKey
}

func (v ed25519Verifier) Verify(msg []byte, sig Signature) bool {
	if !sig.Signer.Valid(len(v.pubs)) {
		return false
	}
	if len(sig.Bytes) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(v.pubs[sig.Signer], msg, sig.Bytes)
}

// ---------------------------------------------------------------------------
// HMAC (simulation)
// ---------------------------------------------------------------------------

// HMACScheme is a deterministic Scheme for simulations: process p's
// "signature" over msg is HMAC-SHA256(key_p, msg), and the verifier holds
// all keys. Within the simulator this models unforgeability exactly: the
// simulated adversary never calls Signer(p) for a correct p.
type HMACScheme struct {
	keys [][]byte
}

var _ Scheme = (*HMACScheme)(nil)

// NewHMAC derives n deterministic per-process keys from seed.
func NewHMAC(n int, seed int64) *HMACScheme {
	s := &HMACScheme{keys: make([][]byte, n)}
	for i := 0; i < n; i++ {
		var buf [16]byte
		binary.BigEndian.PutUint64(buf[0:8], uint64(seed))
		binary.BigEndian.PutUint64(buf[8:16], uint64(i))
		sum := sha256.Sum256(buf[:])
		s.keys[i] = sum[:]
	}
	return s
}

// N implements Scheme.
func (s *HMACScheme) N() int { return len(s.keys) }

// Signer implements Scheme.
func (s *HMACScheme) Signer(p types.ProcessID) Signer {
	return hmacSigner{id: p, key: s.keys[p]}
}

// Verifier implements Scheme.
func (s *HMACScheme) Verifier() Verifier {
	return hmacVerifier{keys: s.keys}
}

type hmacSigner struct {
	id  types.ProcessID
	key []byte
}

func (s hmacSigner) ID() types.ProcessID { return s.id }

func (s hmacSigner) Sign(msg []byte) Signature {
	mac := hmac.New(sha256.New, s.key)
	mac.Write(msg)
	return Signature{Signer: s.id, Bytes: mac.Sum(nil)}
}

type hmacVerifier struct {
	keys [][]byte
}

func (v hmacVerifier) Verify(msg []byte, sig Signature) bool {
	if !sig.Signer.Valid(len(v.keys)) {
		return false
	}
	mac := hmac.New(sha256.New, v.keys[sig.Signer])
	mac.Write(msg)
	return hmac.Equal(mac.Sum(nil), sig.Bytes)
}

// ---------------------------------------------------------------------------
// Signature sets
// ---------------------------------------------------------------------------

// Set accumulates signatures over one fixed message from distinct signers,
// as used for progress certificates (f+1 CertAcks) and commit certificates
// (⌈(n+f+1)/2⌉ ack signatures).
type Set struct {
	msg  []byte
	seen map[types.ProcessID]struct{}
	sigs []Signature
}

// NewSet creates an accumulator for signatures over msg.
func NewSet(msg []byte) *Set {
	return &Set{msg: msg, seen: make(map[types.ProcessID]struct{})}
}

// Add verifies sig against the set's message using v and records it if it is
// valid and from a new signer. It reports whether the signature was added.
func (s *Set) Add(v Verifier, sig Signature) bool {
	if _, dup := s.seen[sig.Signer]; dup {
		return false
	}
	if !v.Verify(s.msg, sig) {
		return false
	}
	s.seen[sig.Signer] = struct{}{}
	s.sigs = append(s.sigs, sig.Clone())
	return true
}

// Len returns the number of distinct valid signatures collected.
func (s *Set) Len() int { return len(s.sigs) }

// Signatures returns a copy of the collected signatures.
func (s *Set) Signatures() []Signature {
	out := make([]Signature, len(s.sigs))
	for i, sig := range s.sigs {
		out[i] = sig.Clone()
	}
	return out
}

// VerifyDistinct checks that sigs contains at least quorum valid signatures
// over msg from pairwise-distinct signers. It is the verification side of
// Set: certificate receivers use it.
func VerifyDistinct(v Verifier, msg []byte, sigs []Signature, quorum int) bool {
	if quorum <= 0 {
		return true
	}
	if len(sigs) < quorum {
		return false
	}
	seen := make(map[types.ProcessID]struct{}, len(sigs))
	valid := 0
	for _, sig := range sigs {
		if _, dup := seen[sig.Signer]; dup {
			continue
		}
		if !v.Verify(msg, sig) {
			continue
		}
		seen[sig.Signer] = struct{}{}
		valid++
		if valid >= quorum {
			return true
		}
	}
	return false
}
