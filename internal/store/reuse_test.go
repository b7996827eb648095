package store

import (
	"testing"
)

// TestGenerationAdvances: every index mutation — install and uninstall —
// bumps the generation, so a ReuseFingerprint computed before a change can
// never match one computed after.
func TestGenerationAdvances(t *testing.T) {
	st := newStore(t)
	g0 := st.index.Generation()
	s := mustConcrete(t, "zlib")
	for _, n := range s.TopoOrder() {
		if _, _, err := st.Install(n, n == s, noopBuilder); err != nil {
			t.Fatal(err)
		}
	}
	g1 := st.index.Generation()
	if g1 <= g0 {
		t.Errorf("install did not advance generation: %d -> %d", g0, g1)
	}
	if err := st.Uninstall(s, true); err != nil {
		t.Fatal(err)
	}
	if g2 := st.index.Generation(); g2 <= g1 {
		t.Errorf("uninstall did not advance generation: %d -> %d", g1, g2)
	}
}

// TestStoreReuseSource: the store offers every installed record as a reuse
// candidate, and its fingerprint tracks the generation.
func TestStoreReuseSource(t *testing.T) {
	st := newStore(t)
	fp0 := st.ReuseFingerprint()
	root := mustConcrete(t, "libdwarf")
	for _, n := range root.TopoOrder() {
		if n.External {
			continue
		}
		if _, _, err := st.Install(n, n == root, noopBuilder); err != nil {
			t.Fatal(err)
		}
	}
	fp1 := st.ReuseFingerprint()
	if fp1 == fp0 {
		t.Error("fingerprint unchanged after installs")
	}
	cands, err := st.ReuseCandidates()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range root.TopoOrder() {
		if n.External {
			continue
		}
		got, ok := cands[n.FullHash()]
		if !ok {
			t.Errorf("installed %s (%s) missing from candidates", n.Name, n.FullHash())
			continue
		}
		if got.Name != n.Name {
			t.Errorf("candidate %s has name %s", n.FullHash(), got.Name)
		}
	}
}
