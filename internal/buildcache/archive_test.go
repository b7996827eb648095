package buildcache

import (
	"reflect"
	"testing"
)

func TestParseBuildCommands(t *testing.T) {
	log := []byte("==> configure\nblah\n==> commands\ncc -c x.c\nld -o app x.o\n\n==> done\nother\n")
	got := parseBuildCommands(log)
	want := []string{"cc -c x.c", "ld -o app x.o"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("commands = %v, want %v", got, want)
	}
}

func TestArchiveChecksumDeterministic(t *testing.T) {
	a := &Archive{Format: archiveFormatVersion, Package: "libelf", FullHash: "h",
		Files: []archiveFile{{Path: "lib/libelf.so", Data: []byte("x")}}}
	if checksumOf(a.encode()) != checksumOf(a.encode()) {
		t.Error("encoding is not deterministic")
	}
}

func TestHashOfName(t *testing.T) {
	for _, name := range []string{"abc.spack.json", "abc.sha256", "abc.sig", "abc.meta"} {
		hash, ok := hashOfName(name)
		if !ok || hash != "abc" {
			t.Errorf("hashOfName(%q) = %q, %v", name, hash, ok)
		}
	}
	if _, ok := hashOfName("abc.tmp1"); ok {
		t.Error("hashOfName accepted a temp name")
	}
}

func TestSignedMessageBindsMetadata(t *testing.T) {
	bare := SignedMessage("sum", nil)
	if bare != "sum" {
		t.Errorf("bare message = %q, want the checksum alone", bare)
	}
	m1 := SignedMessage("sum", []byte(`{"origin":"source"}`))
	m2 := SignedMessage("sum", []byte(`{"origin":"spliced"}`))
	if m1 == m2 {
		t.Error("different metadata produced the same signed message")
	}
	if m1 == bare || m2 == bare {
		t.Error("metadata-bound message equals the bare message")
	}
}
