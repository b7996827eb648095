package buildenv

import (
	"strings"
	"testing"
)

// TestSetGetUnset: a variable never set looks up as absent; a set one
// reads back.
func TestSetGetUnset(t *testing.T) {
	env := NewEnvironment()
	if v, ok := env.Lookup("PATH"); ok || v != "" {
		t.Errorf("empty env Lookup = %q, %v", v, ok)
	}
	env.Set("PATH", "/usr/bin")
	if env.Get("PATH") != "/usr/bin" {
		t.Errorf("Get = %q", env.Get("PATH"))
	}
}

func TestAppendPathPrepends(t *testing.T) {
	env := NewEnvironment()
	env.AppendPath("PATH", "/a/bin")
	if env.Get("PATH") != "/a/bin" {
		t.Errorf("first append = %q", env.Get("PATH"))
	}
	env.AppendPath("PATH", "/b/bin")
	if env.Get("PATH") != "/b/bin:/a/bin" {
		t.Errorf("second append = %q", env.Get("PATH"))
	}
	// Re-appending an existing dir moves it to the front (idempotent).
	env.AppendPath("PATH", "/a/bin")
	if env.Get("PATH") != "/a/bin:/b/bin" {
		t.Errorf("re-append = %q", env.Get("PATH"))
	}
	// Empty dirs are ignored.
	env.AppendPath("PATH", "")
	if env.Get("PATH") != "/a/bin:/b/bin" {
		t.Errorf("empty append = %q", env.Get("PATH"))
	}
}

func TestSerializeDeterministic(t *testing.T) {
	a := NewEnvironment()
	a.Set("B", "2")
	a.Set("A", "1")
	a.Set("C", "3")
	want := "A=1\nB=2\nC=3\n"
	if a.Serialize() != want {
		t.Errorf("Serialize = %q, want %q", a.Serialize(), want)
	}
	// Clone is independent.
	b := a.Clone()
	b.Set("A", "9")
	if a.Get("A") != "1" {
		t.Error("Clone shares storage")
	}
	if b.Serialize() == a.Serialize() {
		t.Error("clone edit not visible in serialization")
	}
}

func TestForBuildIsolation(t *testing.T) {
	deps := []Dep{
		{Name: "mpich", Prefix: "/opt/mpich", Link: true},
		{Name: "cmake", Prefix: "/opt/cmake", Link: false},
	}
	env := ForBuild("mpileaks", "/opt/mpileaks", deps)
	path := env.Get("PATH")
	// First-listed dependency wins PATH priority; system base retained.
	if !strings.HasPrefix(path, "/opt/mpich/bin:") {
		t.Errorf("PATH = %q", path)
	}
	if !strings.Contains(path, "/opt/cmake/bin") || !strings.Contains(path, "/usr/bin") {
		t.Errorf("PATH = %q", path)
	}
	if !strings.HasPrefix(env.Get("CMAKE_PREFIX_PATH"), "/opt/mpich") {
		t.Errorf("CMAKE_PREFIX_PATH = %q", env.Get("CMAKE_PREFIX_PATH"))
	}
	if env.Get("SPACK_PREFIX") != "/opt/mpileaks" {
		t.Errorf("SPACK_PREFIX = %q", env.Get("SPACK_PREFIX"))
	}
	if !strings.Contains(env.Get("PKG_CONFIG_PATH"), "/opt/mpich/lib/pkgconfig") {
		t.Errorf("PKG_CONFIG_PATH = %q", env.Get("PKG_CONFIG_PATH"))
	}
}
