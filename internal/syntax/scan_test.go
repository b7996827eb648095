package syntax_test

import (
	"reflect"
	"testing"

	"repro/internal/spec"
	"repro/internal/syntax"
)

// nonCanonicalNodes are node strings Parse accepts in a shape AppendNode
// never writes; the scanner must leave each to Parse.
var nonCanonicalNodes = []string{
	"libelf @0.8.13",
	"libelf@0.8.12:0.8.13",
	"libelf@0.8.12,0.8.13",
	"libelf@:1",
	"mpileaks+qt+debug",
	"mpileaks+debug+debug",
	"mpileaks~debug+debug",
	"mpileaks -debug",
	"mpileaks%gcc@4.7:4.9",
	"mpileaks%gcc%gcc",
	"mpileaks=linux-x86_64=linux-x86_64",
	"mpileaks=bgq%gcc",
	"mpileaks ^callpath",
	"@1.0",
	"+debug",
}

// FuzzScanNodeMatchesParse holds the canonical-node scanner DecodeJSON
// uses to Parse. It is seeded with every node of the Fig. 8 and ARES
// DAGs as AppendNode renders it, each of which the scanner must accept,
// and with shapes it must leave to Parse. Whatever it accepts, Parse
// accepts too, into a node with the same String, canonical line,
// versions, compiler, variants and architecture.
func FuzzScanNodeMatchesParse(f *testing.F) {
	seen := map[string]bool{}
	for _, s := range solvedDAGs(f) {
		for _, n := range s.Nodes() {
			text := string(n.AppendNode(nil))
			if seen[text] {
				continue
			}
			seen[text] = true
			if _, _, coldOK, warmOK := syntax.ScanNode(text); !coldOK || !warmOK {
				f.Fatalf("scanner refuses canonical node %q", text)
			}
			f.Add(text)
		}
	}
	for _, text := range nonCanonicalNodes {
		if _, _, coldOK, warmOK := syntax.ScanNode(text); coldOK || warmOK {
			f.Fatalf("scanner accepts non-canonical node %q", text)
		}
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		cold, warm, coldOK, warmOK := syntax.ScanNode(text)
		if coldOK != warmOK {
			t.Fatalf("%q: scanned with no compiler before: %v, after its own: %v", text, coldOK, warmOK)
		}
		if !coldOK {
			return
		}
		want, err := syntax.Parse(text)
		if err != nil {
			t.Fatalf("scanner accepts %q, Parse refuses it: %v", text, err)
		}
		for _, got := range []*spec.Spec{cold, warm} {
			if got.String() != want.String() || got.Canonical() != want.Canonical() ||
				!reflect.DeepEqual(got.Versions, want.Versions) ||
				!reflect.DeepEqual(got.Compiler, want.Compiler) ||
				!reflect.DeepEqual(got.Variants, want.Variants) || got.Arch != want.Arch {
				t.Fatalf("%q: scanned %q (%#v), parsed %q (%#v)", text, got, got, want, want)
			}
		}
	})
}
