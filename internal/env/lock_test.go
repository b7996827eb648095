package env

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/syntax"
)

// lockedDAG is a concrete two-node DAG, written as a lock records it.
const lockedDAG = "libdwarf@20130729%gcc@4.9.2=linux-x86_64 ^libelf@0.8.13%gcc@4.9.2=linux-x86_64"

// sampleLock returns the bytes of a lock pinning lockedDAG.
func sampleLock(t testing.TB) []byte {
	s := syntax.MustParse(lockedDAG)
	l := &Lock{
		Version: LockVersion,
		Roots:   []LockRoot{{Expr: "libdwarf", Hash: s.FullHash()}},
		Specs:   map[string]json.RawMessage{s.FullHash(): syntax.EncodeJSON(s)},
	}
	data, err := l.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

var lockCases = []struct {
	name, src, wantErr string
}{
	{"empty object", `{}`, ""},
	{"null specs", `{"version":1,"roots":null,"specs":null}`, ""},
	{"unparsable locked spec", `{"version":1,"roots":[{"expr":"x","hash":"h"}],"specs":{"h":{"root":"x","nodes":{"x":"x@@"}}}}`, ""},
	{"older version", `{"version":0,"roots":[],"specs":{}}`, ""},
	{"newer version", `{"version":2,"roots":[],"specs":{}}`, "newer than this tool"},
	{"not JSON", `spack.lock`, "corrupt"},
	{"roots not a list", `{"version":1,"roots":{"expr":"x"}}`, "corrupt"},
	{"spec not JSON", `{"version":1,"specs":{"h":zlib}}`, "corrupt"},
	{"trailing bytes", `{"version":1} {}`, "corrupt"},
}

// TestDecodeLock: decodeLock accepts what the current version wrote,
// refuses a newer version and malformed bytes, and always hands back a
// Specs map.
func TestDecodeLock(t *testing.T) {
	l, err := decodeLock(sampleLock(t))
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Spec(l.Roots[0].Hash)
	if err != nil || s.String() != syntax.MustParse(lockedDAG).String() {
		t.Fatalf("locked spec = %v, %v", s, err)
	}
	for _, tc := range lockCases {
		t.Run(tc.name, func(t *testing.T) {
			l, err := decodeLock([]byte(tc.src))
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("err = %v", err)
			case tc.wantErr == "" && l.Specs == nil:
				t.Fatal("nil Specs map")
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// FuzzDecodeLock: no input makes decodeLock or the locked-spec readers
// panic, and every lock it accepts encodes to bytes that decode to the
// same lock, whose Encode is then a fixed point, with every locked spec
// decoding (or failing) alike.
func FuzzDecodeLock(f *testing.F) {
	f.Add(sampleLock(f))
	for _, tc := range lockCases {
		f.Add([]byte(tc.src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := decodeLock(data)
		if err != nil {
			return
		}
		if l.Version > LockVersion || l.Specs == nil {
			t.Fatalf("accepted version %d, Specs %v", l.Version, l.Specs)
		}
		out, err := l.Encode()
		if err != nil {
			t.Fatalf("accepted lock does not encode: %v", err)
		}
		back, err := decodeLock(out)
		if err != nil {
			t.Fatalf("encoded lock does not decode: %v\n%s", err, out)
		}
		if again, _ := back.Encode(); !bytes.Equal(again, out) {
			t.Fatalf("Encode is not a fixed point:\n%s\n%s", out, again)
		}
		if back.Version != l.Version || !reflect.DeepEqual(back.Roots, l.Roots) || len(back.Specs) != len(l.Specs) {
			t.Fatalf("round trip changed the lock: %+v, then %+v", l, back)
		}
		for h := range l.Specs {
			s, err := l.Spec(h)
			bs, berr := back.Spec(h)
			if (err == nil) != (berr == nil) {
				t.Fatalf("spec %q: %v, after the round trip %v", h, err, berr)
			}
			if err == nil && s.FullHash() != bs.FullHash() {
				t.Fatalf("spec %q: FullHash %s, after the round trip %s", h, s.FullHash(), bs.FullHash())
			}
		}
		if _, err := l.ReuseCandidates(); err != nil {
			t.Fatal(err)
		}
	})
}
