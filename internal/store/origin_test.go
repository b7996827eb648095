package store

import (
	"testing"

	"repro/internal/txn"
)

func TestInstallOriginDefaults(t *testing.T) {
	st := newStore(t)
	s := mustConcrete(t, "libelf@0.8.13")
	rec, _, err := st.Install(s, true, noopBuilder)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Origin != OriginSource {
		t.Errorf("Install origin = %q, want %q", rec.Origin, OriginSource)
	}

	b := mustConcrete(t, "zlib")
	recB, _, err := st.InstallTxn(nil, b, txn.RecordMeta{Origin: OriginBinary}, noopBuilder)
	if err != nil {
		t.Fatal(err)
	}
	if recB.Origin != OriginBinary {
		t.Errorf("InstallTxn origin = %q, want %q", recB.Origin, OriginBinary)
	}
}

func TestExternalOriginOverrides(t *testing.T) {
	st := newStore(t)
	s := mustConcrete(t, "mpich@3.0.4")
	s.External = true
	s.Path = "/opt/mpich-3.0.4"
	// Even a caller claiming a binary origin gets the external label:
	// site-owned prefixes are never ours.
	rec, _, err := st.InstallTxn(nil, s, txn.RecordMeta{Explicit: true, Origin: OriginBinary}, noopBuilder)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Origin != OriginExternal {
		t.Errorf("external origin = %q, want %q", rec.Origin, OriginExternal)
	}
}

func TestOriginSurvivesSaveLoad(t *testing.T) {
	st := newStore(t)
	src := mustConcrete(t, "libelf@0.8.13")
	bin := mustConcrete(t, "zlib")
	if _, _, err := st.Install(src, true, noopBuilder); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.InstallTxn(nil, bin, txn.RecordMeta{Origin: OriginBinary}, noopBuilder); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(st.FS, "/spack/opt", SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	recSrc, _ := st2.Lookup(src)
	recBin, _ := st2.Lookup(bin)
	if recSrc == nil || recBin == nil {
		t.Fatal("records lost in round trip")
	}
	if recSrc.Origin != OriginSource || recBin.Origin != OriginBinary {
		t.Errorf("origins after reload = %q/%q, want %q/%q",
			recSrc.Origin, recBin.Origin, OriginSource, OriginBinary)
	}
}

func TestRecordOriginNormalizes(t *testing.T) {
	if got := RecordOrigin(&Record{Origin: OriginBinary}); got != OriginBinary {
		t.Errorf("explicit origin = %q", got)
	}
	// Pre-origin databases leave the field empty: source unless external.
	s := mustConcrete(t, "libelf@0.8.13")
	if got := RecordOrigin(&Record{Spec: s}); got != OriginSource {
		t.Errorf("legacy origin = %q, want %q", got, OriginSource)
	}
	ext := s.Clone()
	ext.External = true
	if got := RecordOrigin(&Record{Spec: ext}); got != OriginExternal {
		t.Errorf("legacy external origin = %q, want %q", got, OriginExternal)
	}
}
