package fetch

import (
	"reflect"
	"testing"
)

func TestBlobRoundTrip(t *testing.T) {
	m := NewMirror()
	m.PutBlob("build_cache/abc.spack.json", []byte("archive"))
	data, ok := m.Blob("build_cache/abc.spack.json")
	if !ok || string(data) != "archive" {
		t.Fatalf("Blob = %q, %v", data, ok)
	}
	if _, ok := m.Blob("absent"); ok {
		t.Error("absent blob reported present")
	}
}

func TestBlobCopiesBothWays(t *testing.T) {
	m := NewMirror()
	in := []byte("original")
	m.PutBlob("x", in)
	in[0] = '!' // caller mutating its slice must not reach the mirror
	out, _ := m.Blob("x")
	if string(out) != "original" {
		t.Errorf("stored blob aliased the caller's slice: %q", out)
	}
	out[0] = '?' // and mutating the returned copy must not either
	again, _ := m.Blob("x")
	if string(again) != "original" {
		t.Errorf("returned blob aliased the stored bytes: %q", again)
	}
}

func TestBlobOverwriteDeleteList(t *testing.T) {
	m := NewMirror()
	m.PutBlob("b", []byte("1"))
	m.PutBlob("a", []byte("2"))
	m.PutBlob("b", []byte("3"))
	if got := m.Blobs(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Blobs = %v, want sorted [a b]", got)
	}
	data, _ := m.Blob("b")
	if string(data) != "3" {
		t.Errorf("overwrite lost: %q", data)
	}
	m.DeleteBlob("a")
	if got := m.Blobs(); !reflect.DeepEqual(got, []string{"b"}) {
		t.Errorf("Blobs after delete = %v", got)
	}
}
