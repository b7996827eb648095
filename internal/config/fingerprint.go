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
// cache computes it on every hit, so it is written without fmt.
func (c *Config) Fingerprint() string {
	var b strings.Builder
	all, n := c.scopes()
	for i, s := range all[:n] {
		b.WriteString("scope ")
		b.WriteString(strconv.Itoa(i))
		b.WriteByte('\n')
		fingerprintScope(&b, s)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

func fingerprintScope(b *strings.Builder, s *Scope) {
	fingerprintLine(b, "default_arch", s.DefaultArch)
	for _, comp := range s.CompilerOrder {
		fingerprintLine(b, "compiler_order", comp.String())
	}
	for _, virtual := range sortedKeys(s.ProviderOrder) {
		fingerprintLine(b, "provider_order", virtual, "=", strings.Join(s.ProviderOrder[virtual], ","))
	}
	for _, name := range sortedKeys(s.PreferredVersions) {
		fingerprintLine(b, "preferred_version", name, "@"+s.PreferredVersions[name].String())
	}
	for _, name := range sortedKeys(s.VariantDefaults) {
		m := s.VariantDefaults[name]
		for _, variant := range sortedKeys(m) {
			fingerprintLine(b, "variant_default", name, variant+"="+strconv.FormatBool(m[variant]))
		}
	}
	for _, e := range s.Externals {
		fingerprintLine(b, "external", e.Constraint.String(), "arch="+e.Arch, "path="+e.Path)
	}
}

// fingerprintLine writes one setting: indented, its words separated by
// spaces.
func fingerprintLine(b *strings.Builder, words ...string) {
	b.WriteByte(' ')
	for _, w := range words {
		b.WriteByte(' ')
		b.WriteString(w)
	}
	b.WriteByte('\n')
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
