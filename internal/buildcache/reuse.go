package buildcache

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"

	"repro/internal/spec"
	"repro/internal/syntax"
)

// ReuseCandidates returns the concrete spec embedded in every cached
// archive, keyed by full DAG hash — the buildcache's half of the
// concretizer's ReuseSource seam. Undecodable archives are skipped: a
// cache is an optimization, never a source of truth.
func (c *Cache) ReuseCandidates() (map[string]*spec.Spec, error) {
	names, err := c.be.List()
	if err != nil {
		return nil, err
	}
	out := make(map[string]*spec.Spec)
	for _, name := range names {
		hash, ok := strings.CutSuffix(name, ".spack.json")
		if !ok {
			continue
		}
		payload, ok, err := c.be.Get(name)
		if err != nil || !ok {
			continue
		}
		ar, err := decodeArchive(payload)
		if err != nil {
			continue
		}
		if ar.FullHash != hash {
			continue
		}
		s, err := syntax.DecodeJSON(ar.SpecJSON)
		if err != nil {
			continue
		}
		out[hash] = s
	}
	return out, nil
}

// ReuseFingerprint identifies the current archive set: a digest over the
// sorted hash → checksum pairs, so any push (or a replaced archive)
// invalidates reuse answers computed before it. A backend that cannot be
// listed reports a sentinel that never matches a healthy fingerprint.
func (c *Cache) ReuseFingerprint() string {
	keys, err := c.Keys()
	if err != nil {
		return "buildcache:unavailable"
	}
	hashes := make([]string, 0, len(keys))
	for h := range keys {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	d := sha256.New()
	for _, h := range hashes {
		d.Write([]byte(h))
		d.Write([]byte{'='})
		d.Write([]byte(keys[h]))
		d.Write([]byte{0})
	}
	return "buildcache:" + hex.EncodeToString(d.Sum(nil))[:16]
}
