package buildcache

import (
	"encoding/json"
	"fmt"
	"strings"
)

// This file is the cache's signature seam. The wire format — a detached
// Ed25519 signature over an archive's recorded SHA-256 checksum, stored
// as <hash>.sig beside the archive and checksum — is owned here; key
// generation, storage, and the trust decisions live in the lifecycle
// package's Keyring, which plugs in through the Signer and Verifier
// interfaces below.

// Signature is the detached-signature document stored as <hash>.sig: the
// signing key's name and public half (so listings can say who signed
// without a keyring), and the Ed25519 signature over the checksum hex
// string.
type Signature struct {
	Key    string `json:"key"`
	Public []byte `json:"public"`
	Sig    []byte `json:"sig"`
}

// EncodeSignature renders the signature document.
func EncodeSignature(s *Signature) ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeSignature parses a signature document.
func DecodeSignature(data []byte) (*Signature, error) {
	var s Signature
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("buildcache: corrupt signature: %w", err)
	}
	return &s, nil
}

// Signer produces detached signatures at Push time over a message
// string (see SignedMessage: the archive checksum plus the metadata
// digest). Sign returns (nil, nil) when no signing identity is
// configured — the push proceeds unsigned, which the reading side's
// trust policy then judges.
type Signer interface {
	Sign(message string) ([]byte, error)
}

// Verifier judges a detached signature over a message against a trust
// set. A nil error means the signature is valid and its key is trusted;
// anything else (bad signature, unknown key, untrusted key) is the
// reason the archive should not be trusted.
type Verifier interface {
	VerifySignature(message string, sig []byte) error
}

// TrustPolicy gates what unsigned or untrusted archives may do on the
// read path (Pull, Verify).
type TrustPolicy string

const (
	// TrustOff (the zero value) disables signature checking entirely —
	// the pre-signing behaviour.
	TrustOff TrustPolicy = ""
	// TrustWarn verifies and surfaces failures as warnings but lets the
	// operation proceed — the migration default while a fleet's mirrors
	// are being signed.
	TrustWarn TrustPolicy = "warn"
	// TrustEnforce rejects archives that are unsigned, signed by an
	// untrusted key, or carry an invalid signature.
	TrustEnforce TrustPolicy = "enforce"
)

// ParseTrustPolicy validates a policy string ("off" and "" both mean
// TrustOff).
func ParseTrustPolicy(s string) (TrustPolicy, error) {
	switch strings.TrimSpace(s) {
	case "", "off":
		return TrustOff, nil
	case "warn":
		return TrustWarn, nil
	case "enforce":
		return TrustEnforce, nil
	}
	return TrustOff, fmt.Errorf("buildcache: unknown trust policy %q (want off, warn, or enforce)", s)
}

// checkSignature fetches and judges the detached signature for an
// archive under the cache's policy. The signed message covers the
// checksum and, when a metadata document rides with the archive, its
// digest — so tampered provenance fails exactly like tampered bytes. It
// returns a warning string under TrustWarn, and under TrustEnforce the
// error with its kind (KindSignature, or KindIO when the signature could
// not be read) for the caller to wrap; with TrustOff it is free.
func (c *Cache) checkSignature(hash, checksum string, metaBytes []byte) (string, Kind, error) {
	if c.Policy == TrustOff {
		return "", "", nil
	}
	sigData, ok, err := c.be.Get(sigName(hash))
	if err != nil {
		return "", KindIO, err
	}
	var verr error
	switch {
	case !ok:
		verr = fmt.Errorf("archive is unsigned")
	case c.Verifier == nil:
		verr = fmt.Errorf("archive is signed but no keyring is configured to verify it")
	default:
		verr = c.Verifier.VerifySignature(SignedMessage(checksum, metaBytes), sigData)
	}
	if verr == nil {
		return "", "", nil
	}
	if c.Policy == TrustEnforce {
		return "", KindSignature, verr
	}
	return fmt.Sprintf("signature: %v", verr), "", nil
}
