package config

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"
	"strings"
)

// Fingerprint returns a stable hash over every setting that can influence
// concretization: default architecture, compiler order, provider order,
// preferred versions, variant overrides, and external registrations, per
// scope in precedence order. It is the configuration component of the
// concretizer's memo-cache key, so editing a preference invalidates cached
// results automatically. View link rules and architecture build
// descriptions are excluded: they affect views and builds, never the
// concretizer's choices.
//
// The memo cache reads it on every hit, so it is computed once per change:
// the result is memoized with the scopes and their setter generations, and
// a call that finds both unchanged returns it without serializing
// anything. Scope's settings are unexported and every setter bumps its
// scope's generation, so no change goes unseen.
func (c *Config) Fingerprint() string {
	all, n := c.scopes()
	var gens [2]uint64
	for i, s := range all[:n] {
		gens[i] = s.gen.Load()
	}
	if fp := c.fp.Load(); fp != nil && fp.scopes == all && fp.gens == gens {
		return fp.sum
	}
	var buf [512]byte
	b := buf[:0]
	for i, s := range all[:n] {
		b = append(strconv.AppendInt(append(b, "scope "...), int64(i), 10), '\n')
		b = appendScope(b, s)
	}
	sum := sha256.Sum256(b)
	fp := &fingerprint{scopes: all, gens: gens, sum: hex.EncodeToString(sum[:])}
	c.fp.Store(fp)
	return fp.sum
}

// fingerprint is one memoized Fingerprint: the scopes it covers, in
// precedence order, and the generation each was at.
type fingerprint struct {
	scopes [2]*Scope
	gens   [2]uint64
	sum    string
}

func appendScope(b []byte, s *Scope) []byte {
	b = appendLine(b, "default_arch", s.defaultArch)
	for _, comp := range s.compilerOrder {
		b = appendLine(b, "compiler_order", comp.String())
	}
	for _, virtual := range sortedKeys(s.providerOrder) {
		b = appendLine(b, "provider_order", virtual, "=", strings.Join(s.providerOrder[virtual], ","))
	}
	for _, name := range sortedKeys(s.preferredVersions) {
		b = appendLine(b, "preferred_version", name, "@"+s.preferredVersions[name].String())
	}
	for _, name := range sortedKeys(s.variantDefaults) {
		m := s.variantDefaults[name]
		for _, variant := range sortedKeys(m) {
			b = appendLine(b, "variant_default", name, variant+"="+strconv.FormatBool(m[variant]))
		}
	}
	for _, e := range s.externals {
		b = appendLine(b, "external", e.Constraint.String(), "arch="+e.Arch, "path="+e.Path)
	}
	return b
}

// appendLine appends one setting: indented, its words separated by
// spaces.
func appendLine(b []byte, words ...string) []byte {
	b = append(b, ' ')
	for _, w := range words {
		b = append(append(b, ' '), w...)
	}
	return append(b, '\n')
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
