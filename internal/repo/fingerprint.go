package repo

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/pkg"
	"repro/internal/spec"
)

// Fingerprint returns a stable hash over every package definition visible
// along the path, in precedence order. It is the repository component of the
// concretizer's memo-cache key: any change to a directive that can affect
// concretization — versions, dependencies, provides, variants, features,
// namespaces, shadowing order — produces a different fingerprint, so cached
// concretization results are invalidated automatically.
//
// Repositories are conventionally frozen after construction; to keep the
// warm-cache path cheap the hash is computed once per index snapshot, which
// is rebuilt when the repository list or some repository's generation
// counter (bumped by Add) changes.
func (p *Path) Fingerprint() string {
	ix := p.index()
	ix.fpOnce.Do(func() {
		var b strings.Builder
		for _, r := range ix.repos {
			fmt.Fprintf(&b, "repo %s\n", r.Namespace)
			for _, name := range r.Names() {
				def, _ := r.Get(name)
				fingerprintPackage(&b, def)
			}
		}
		sum := sha256.Sum256([]byte(b.String()))
		ix.fp = hex.EncodeToString(sum[:])
	})
	return ix.fp
}

// fingerprintPackage serializes the concretization-relevant directives of
// one package definition. Install procedures are deliberately excluded: they
// affect builds, not concretization.
func fingerprintPackage(b *strings.Builder, def *pkg.Package) {
	fmt.Fprintf(b, "package %s\n", def.Name)
	for _, vi := range def.VersionInfos {
		fmt.Fprintf(b, "  version %s md5=%s deprecated=%v\n", vi.Version, vi.MD5, vi.Deprecated)
	}
	for _, d := range def.Dependencies {
		fmt.Fprintf(b, "  depends_on %s when=%s buildonly=%v\n",
			d.Constraint, specString(d.When), d.BuildOnly)
	}
	for _, pr := range def.Provides {
		fmt.Fprintf(b, "  provides %s when=%s\n", pr.Virtual, specString(pr.When))
	}
	for _, v := range def.Variants {
		fmt.Fprintf(b, "  variant %s default=%v\n", v.Name, v.Default)
	}
	for _, f := range def.Features {
		fmt.Fprintf(b, "  requires_feature %s when=%s\n", f.Feature, specString(f.When))
	}
	if def.Extendee != "" {
		fmt.Fprintf(b, "  extends %s\n", def.Extendee)
	}
}

func specString(s *spec.Spec) string {
	if s == nil {
		return ""
	}
	return s.String()
}
