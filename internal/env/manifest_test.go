package env

import (
	"reflect"
	"strings"
	"testing"
)

const sampleManifest = `# team environment
spack:
  specs:
  - mpileaks ^mvapich
  - dyninst
  view:
    path: /spack/envs/dev/view
    projection: ${PACKAGE}-${VERSION}
    conflict: site
  config:
    compiler_order: icc,gcc@4.6.1
    providers:
      mpi: [mvapich, mpich]
`

func TestParseManifestFull(t *testing.T) {
	m, err := ParseManifest(sampleManifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Specs) != 2 || m.Specs[0] != "mpileaks ^mvapich" || m.Specs[1] != "dyninst" {
		t.Errorf("specs = %v", m.Specs)
	}
	if m.View == nil || m.View.Path != "/spack/envs/dev/view" {
		t.Fatalf("view = %+v", m.View)
	}
	if m.View.Projection != "${PACKAGE}-${VERSION}" || m.View.ConflictPolicy() != "site" {
		t.Errorf("view = %+v", m.View)
	}
	if m.CompilerOrder != "icc,gcc@4.6.1" {
		t.Errorf("compiler_order = %q", m.CompilerOrder)
	}
	if got := m.Providers["mpi"]; len(got) != 2 || got[0] != "mvapich" || got[1] != "mpich" {
		t.Errorf("providers = %v", m.Providers)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m, err := ParseManifest(sampleManifest)
	if err != nil {
		t.Fatal(err)
	}
	rendered := m.Render()
	back, err := ParseManifest(rendered)
	if err != nil {
		t.Fatalf("re-parse rendered manifest: %v\n%s", err, rendered)
	}
	if back.Render() != rendered {
		t.Errorf("render not stable:\n%s\nvs\n%s", rendered, back.Render())
	}
	if len(back.Specs) != 2 || back.View == nil || back.View.Conflict != "site" ||
		back.CompilerOrder != m.CompilerOrder || len(back.Providers["mpi"]) != 2 {
		t.Errorf("round trip lost data: %+v", back)
	}
}

const defaultsManifest = "spack:\n  specs:\n  - zlib\n  view:\n    path: /v\n"

func TestManifestDefaults(t *testing.T) {
	m, err := ParseManifest(defaultsManifest)
	if err != nil {
		t.Fatal(err)
	}
	if m.View.ProjectionTemplate() != DefaultProjection {
		t.Errorf("projection default = %q", m.View.ProjectionTemplate())
	}
	if m.View.ConflictPolicy() != "user" {
		t.Errorf("conflict default = %q", m.View.ConflictPolicy())
	}
}

var manifestErrorCases = []struct {
	name, src, wantErr string
}{
	{"no spack section", "specs:\n- zlib\n", "no top-level"},
	{"unknown section", "spack:\n  stuff:\n  - x\n", "unknown manifest section"},
	{"unknown view key", "spack:\n  view:\n    pth: /v\n", "unknown view setting"},
	{"view without path", "spack:\n  view:\n    projection: ${PACKAGE}\n", "view needs a path"},
	{"bad conflict", "spack:\n  view:\n    path: /v\n    conflict: nobody\n", "conflict policy"},
	{"tab indent", "spack:\n\tspecs:\n", "tabs"},
	{"bare text", "spack:\n  specs:\n  - zlib\n  oops\n", "expected `key:`"},
	{"duplicate key", "spack:\n  specs:\n  - a\n  specs:\n  - b\n", "duplicate key"},
	// Sections of the wrong shape.
	{"spack scalar", "spack: zlib\n", "`spack:` must be a mapping"},
	{"spack list", "spack:\n- zlib\n", "`spack:` must be a mapping"},
	{"specs scalar", "spack:\n  specs: zlib\n", "specs must be a list"},
	{"specs mapping", "spack:\n  specs:\n    zlib: 1.2\n", "specs must be a list"},
	{"view scalar", "spack:\n  view: /v\n", "view must be a mapping"},
	{"view path list", "spack:\n  view:\n    path: [/a, /b]\n", "view setting \"path\" must be one value"},
	{"config list", "spack:\n  config:\n  - gcc\n", "config must be a mapping"},
	{"compiler_order inline list", "spack:\n  config:\n    compiler_order: [gcc, icc]\n", "compiler_order must be one"},
	{"compiler_order block list", "spack:\n  config:\n    compiler_order:\n    - gcc\n    - icc\n", "compiler_order must be one"},
	{"providers scalar", "spack:\n  config:\n    providers: mpich\n", "providers must be a mapping"},
	{"provider scalar", "spack:\n  config:\n    providers:\n      mpi: mpich\n", "mpi providers must be a list"},
}

func TestParseManifestErrors(t *testing.T) {
	for _, tc := range manifestErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseManifest(tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

const inlineManifest = "spack:\n  specs: [zlib, libelf@0.8.13]\n  # trailing comment\n"

func TestInlineListAndComments(t *testing.T) {
	m, err := ParseManifest(inlineManifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Specs) != 2 || m.Specs[1] != "libelf@0.8.13" {
		t.Errorf("specs = %v", m.Specs)
	}
}

// FuzzParseManifest: no input makes ParseManifest panic, and every
// manifest it accepts renders back, through Render, to text that parses
// to an equal Manifest.
func FuzzParseManifest(f *testing.F) {
	f.Add(sampleManifest)
	f.Add(defaultsManifest)
	f.Add(inlineManifest)
	for _, tc := range manifestErrorCases {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ParseManifest(src)
		if err != nil {
			return
		}
		out := m.Render()
		back, err := ParseManifest(out)
		if err != nil {
			t.Fatalf("rendered manifest does not parse: %v\n--- input ---\n%s\n--- rendered ---\n%s", err, src, out)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("round trip changed the manifest:\n%#v\n%#v\n--- input ---\n%s\n--- rendered ---\n%s", m, back, src, out)
		}
	})
}
