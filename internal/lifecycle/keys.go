// Package lifecycle manages a fleet's store and cache over time: garbage
// collection of unreferenced install prefixes (gc.go), the Ed25519 key
// registry and trust policy behind signed buildcaches (this file), and
// the size/age-bounded LRU mirror sweep (prune.go). The store's
// transactional journal stages every destructive step, so a crash in the
// middle of any lifecycle operation leaves the site provably pre- or
// post-state.
package lifecycle

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/buildcache"
	"repro/internal/simfs"
	"repro/internal/txn"
)

// Key is one registry entry: the public half identifies signers in
// archive listings; the private half (present only for locally generated
// keys) signs pushes; Trusted marks keys whose signatures satisfy the
// trust policy.
type Key struct {
	Name    string `json:"name"`
	Public  []byte `json:"public"`
	Private []byte `json:"private,omitempty"`
	Trusted bool   `json:"trusted"`
}

// keysDoc is the on-disk registry document.
type keysDoc struct {
	Keys   []*Key `json:"keys"`
	Policy string `json:"policy,omitempty"`
}

// Keyring is the site's signing-key registry, persisted as a single JSON
// document (by default /spack/etc/spack/keys.json). It implements
// buildcache.Signer and buildcache.Verifier, so wiring a keyring onto a
// cache makes pushes signed and reads policy-gated.
type Keyring struct {
	FS   *simfs.FS
	Path string

	mu  sync.Mutex
	doc keysDoc
}

// OpenKeyring loads the registry at path, or returns an empty keyring
// when no file exists yet.
func OpenKeyring(fs *simfs.FS, path string) (*Keyring, error) {
	k := &Keyring{FS: fs, Path: path}
	data, err := fs.ReadFile(path)
	if err != nil {
		if exists, _ := fs.Stat(path); !exists {
			return k, nil
		}
		return nil, fmt.Errorf("lifecycle: read keyring %s: %w", path, err)
	}
	if err := json.Unmarshal(data, &k.doc); err != nil {
		return nil, fmt.Errorf("lifecycle: corrupt keyring %s: %w", path, err)
	}
	return k, nil
}

// save persists the registry atomically (temp + rename) under the lock.
func (k *Keyring) save() error {
	data, err := json.MarshalIndent(&k.doc, "", "  ")
	if err != nil {
		return err
	}
	dir := k.Path[:strings.LastIndexByte(k.Path, '/')]
	if err := k.FS.MkdirAll(dir); err != nil {
		return err
	}
	return txn.WriteFileAtomic(k.FS, k.Path, append(data, '\n'))
}

// Generate creates a new Ed25519 key pair under a name, marks it
// trusted (a site trusts the keys it mints), persists the registry, and
// returns the public half.
func (k *Keyring) Generate(name string) ([]byte, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.find(name) != nil {
		return nil, fmt.Errorf("lifecycle: key %q already exists", name)
	}
	k.doc.Keys = append(k.doc.Keys, &Key{Name: name, Public: pub, Private: priv, Trusted: true})
	if err := k.save(); err != nil {
		return nil, err
	}
	return pub, nil
}

// Add imports another site's public key, untrusted until Trust is
// called — `buildcache keys add` then `buildcache keys trust`.
func (k *Keyring) Add(name string, public []byte) error {
	if len(public) != ed25519.PublicKeySize {
		return fmt.Errorf("lifecycle: key %q: want %d public key bytes, got %d",
			name, ed25519.PublicKeySize, len(public))
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.find(name) != nil {
		return fmt.Errorf("lifecycle: key %q already exists", name)
	}
	k.doc.Keys = append(k.doc.Keys, &Key{Name: name, Public: public})
	return k.save()
}

// Trust marks a registered key trusted, persisting the registry.
func (k *Keyring) Trust(name string) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	key := k.find(name)
	if key == nil {
		return fmt.Errorf("lifecycle: unknown key %q", name)
	}
	key.Trusted = true
	return k.save()
}

// List snapshots the registered keys, sorted by name. Private halves are
// elided — listings never leak signing material.
func (k *Keyring) List() []Key {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]Key, 0, len(k.doc.Keys))
	for _, key := range k.doc.Keys {
		out = append(out, Key{Name: key.Name, Public: key.Public, Trusted: key.Trusted,
			Private: nil})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetPolicy persists the registry's trust policy.
func (k *Keyring) SetPolicy(p buildcache.TrustPolicy) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.doc.Policy = string(p)
	return k.save()
}

// Policy returns the persisted trust policy (TrustOff when unset).
func (k *Keyring) Policy() buildcache.TrustPolicy {
	k.mu.Lock()
	defer k.mu.Unlock()
	return buildcache.TrustPolicy(k.doc.Policy)
}

// find returns the named key; callers hold k.mu.
func (k *Keyring) find(name string) *Key {
	for _, key := range k.doc.Keys {
		if key.Name == name {
			return key
		}
	}
	return nil
}

// Sign implements buildcache.Signer: it signs a checksum with the first
// key that has a private half, returning the encoded detached-signature
// document. With no signing identity it returns (nil, nil) and the push
// proceeds unsigned — a keyring can always be wired, populated or not.
func (k *Keyring) Sign(checksum string) ([]byte, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, key := range k.doc.Keys {
		if len(key.Private) == 0 {
			continue
		}
		sig := ed25519.Sign(ed25519.PrivateKey(key.Private), []byte(checksum))
		return buildcache.EncodeSignature(&buildcache.Signature{
			Key: key.Name, Public: key.Public, Sig: sig,
		})
	}
	return nil, nil
}

// VerifySignature implements buildcache.Verifier: the signature document
// must name a public key registered AND trusted here, and its Ed25519
// signature must validate over the checksum. The embedded public half is
// matched against the registry — an attacker shipping their own key
// inside the document gains nothing. The lock covers only the registry
// lookup; the Ed25519 check runs after it, so concurrent pulls verify in
// parallel.
func (k *Keyring) VerifySignature(checksum string, sigData []byte) error {
	sig, err := buildcache.DecodeSignature(sigData)
	if err != nil {
		return err
	}
	name, trusted, found := k.lookupPublic(sig.Public)
	if !found {
		return fmt.Errorf("signing key %q is not in the keyring", sig.Key)
	}
	if !trusted {
		return fmt.Errorf("signing key %q (registered as %q) is not trusted", sig.Key, name)
	}
	// sig.Public is the decoder's own copy and equals the registered
	// public half, so it is safe to use outside the lock.
	if !ed25519.Verify(ed25519.PublicKey(sig.Public), []byte(checksum), sig.Sig) {
		return fmt.Errorf("invalid signature by key %q", name)
	}
	return nil
}

// lookupPublic finds the first registered key with the given public half
// and reports its name and trust flag.
func (k *Keyring) lookupPublic(public []byte) (name string, trusted, found bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, key := range k.doc.Keys {
		if bytes.Equal(key.Public, public) {
			return key.Name, key.Trusted, true
		}
	}
	return "", false, false
}
