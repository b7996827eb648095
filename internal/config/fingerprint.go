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
// Scopes are small and mutable in place (fields are public), so the
// serialization is recomputed on every call rather than cached; the memo
// cache computes it on every hit, so it is appended by hand into a buffer
// on the stack.
func (c *Config) Fingerprint() string {
	var buf [512]byte
	b := buf[:0]
	all, n := c.scopes()
	for i, s := range all[:n] {
		b = append(strconv.AppendInt(append(b, "scope "...), int64(i), 10), '\n')
		b = appendScope(b, s)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func appendScope(b []byte, s *Scope) []byte {
	b = appendLine(b, "default_arch", s.DefaultArch)
	for _, comp := range s.CompilerOrder {
		b = appendLine(b, "compiler_order", comp.String())
	}
	for _, virtual := range sortedKeys(s.ProviderOrder) {
		b = appendLine(b, "provider_order", virtual, "=", strings.Join(s.ProviderOrder[virtual], ","))
	}
	for _, name := range sortedKeys(s.PreferredVersions) {
		b = appendLine(b, "preferred_version", name, "@"+s.PreferredVersions[name].String())
	}
	for _, name := range sortedKeys(s.VariantDefaults) {
		m := s.VariantDefaults[name]
		for _, variant := range sortedKeys(m) {
			b = appendLine(b, "variant_default", name, variant+"="+strconv.FormatBool(m[variant]))
		}
	}
	for _, e := range s.Externals {
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
