package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/env"
)

// TestVerbTableHelp walks the whole command table: every entry, children
// included, appears in the top-level usage, and `<path> -h` succeeds and
// prints the entry's synopsis — the same text `help <path>` prints.
func TestVerbTableHelp(t *testing.T) {
	s := newCLI(t)
	top := runCmd(t, s, "help")
	root.walk("", func(path string, v *verb) {
		synopsis := join(path, v.args)
		if !strings.Contains(top, "\n  "+synopsis+" ") && !strings.Contains(top, "\n  "+synopsis+"\n") {
			t.Errorf("top-level usage does not list %q:\n%s", synopsis, top)
		}
		p := strings.Fields(path)
		out := runCmd(t, s, p[0], append(p[1:], "-h")...)
		if !strings.Contains(out, "usage: spack-go "+synopsis+"\n") {
			t.Errorf("%s -h does not print its synopsis %q:\n%s", path, synopsis, out)
		}
		if got := runCmd(t, s, "help", p...); got != out {
			t.Errorf("help %s differs from its -h:\n%s\nvs\n%s", path, got, out)
		}
	})
}

// TestCmdFlagErrorsGoToWriter: a bad flag on any verb reports to the
// verb's writer, not to the process's stderr.
func TestCmdFlagErrorsGoToWriter(t *testing.T) {
	s := newCLI(t)
	for _, c := range [][]string{
		{"spec", "-bogus", "zlib"},
		{"gc", "-bogus"},
		{"buildcache", "prune", "-bogus"},
		{"env", "create", "-bogus", "dev"},
		{"env", "install", "-bogus", "dev"},
	} {
		var b strings.Builder
		if err := run(&b, s, c[0], c[1:]); err == nil {
			t.Errorf("%v should fail", c)
		}
		if !strings.Contains(b.String(), "flag provided but not defined: -bogus") {
			t.Errorf("%v: flag error not written to w:\n%s", c, b.String())
		}
	}
}

// TestCmdShortBlobHash: archive hashes come from mirror blob names, which
// anyone with write access to the mirror chooses. A name shorter than the
// displayed 8-character prefix prints whole instead of panicking.
func TestCmdShortBlobHash(t *testing.T) {
	s := newCLI(t)
	s.Mirror.PutBlob("build_cache/x.sha256", []byte("abc\n"))
	out := runCmd(t, s, "buildcache", "keys")
	if !strings.Contains(out, "    x  sha256=abc\n") {
		t.Errorf("keys output:\n%s", out)
	}
}

// TestCmdEnvShortLockfileHash: spack.lock is hand-editable, so a locked
// root's hash may be shorter than the displayed prefix.
func TestCmdEnvShortLockfileHash(t *testing.T) {
	s := newCLI(t)
	runCmd(t, s, "env", "install", "dev", "zlib")
	path := core.EnvRoot + "/dev/spack.lock"
	data, err := s.FS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lock env.Lock
	if err := json.Unmarshal(data, &lock); err != nil {
		t.Fatal(err)
	}
	full := lock.Roots[0].Hash
	lock.Roots[0].Hash = "ab"
	lock.Specs["ab"] = lock.Specs[full]
	delete(lock.Specs, full)
	if data, err = json.Marshal(&lock); err != nil {
		t.Fatal(err)
	}
	if err := s.FS.WriteFile(path, data); err != nil {
		t.Fatal(err)
	}

	runCmd(t, s, "env", "rm", "dev", "zlib")
	out := runCmd(t, s, "env", "install", "dev")
	if !strings.Contains(out, "    rm   zlib") || !strings.Contains(out, " ab\n") {
		t.Errorf("install output:\n%s", out)
	}
}
