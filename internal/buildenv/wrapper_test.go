package buildenv

import (
	"reflect"
	"strings"
	"testing"
)

func testWrapper() *Wrapper {
	return &Wrapper{
		Tool:      "cc",
		Real:      "/usr/bin/gcc-4.9.2",
		OwnPrefix: "/opt/mpileaks",
		Deps: []Dep{
			{Name: "callpath", Prefix: "/opt/callpath", Link: true},
			{Name: "autoconf", Prefix: "/opt/autoconf", Link: false},
		},
	}
}

func TestRewriteLinkStep(t *testing.T) {
	w := testWrapper()
	final := w.Rewrite([]string{"-o", "mpileaks", "main.o"})
	cmd := strings.Join(final, " ")
	if final[0] != "/usr/bin/gcc-4.9.2" {
		t.Errorf("real driver not substituted: %v", final)
	}
	// Include dirs for every dep, link deps and own prefix in RPATH.
	for _, want := range []string{
		"-I/opt/callpath/include",
		"-I/opt/autoconf/include",
		"-L/opt/callpath/lib",
		"-Wl,-rpath,/opt/callpath/lib",
		"-Wl,-rpath,/opt/mpileaks/lib",
	} {
		if !strings.Contains(cmd, want) {
			t.Errorf("missing %q in %q", want, cmd)
		}
	}
	// Build-only deps get -I but never -L/-rpath.
	for _, banned := range []string{"-L/opt/autoconf/lib", "-Wl,-rpath,/opt/autoconf/lib"} {
		if strings.Contains(cmd, banned) {
			t.Errorf("build-only dep leaked into link flags: %q", cmd)
		}
	}
}

func TestRewriteCompileOnlyStep(t *testing.T) {
	w := testWrapper()
	cmd := strings.Join(w.Rewrite([]string{"-c", "x.c", "-o", "x.o"}), " ")
	if !strings.Contains(cmd, "-I/opt/callpath/include") {
		t.Errorf("compile step missing include: %q", cmd)
	}
	if strings.Contains(cmd, "-rpath") || strings.Contains(cmd, "-L/opt/") {
		t.Errorf("compile-only step got link flags: %q", cmd)
	}
}

func TestRewriteFiltersSystemDirsAndDedups(t *testing.T) {
	w := testWrapper()
	final := w.Rewrite([]string{"-I/usr/include", "-L/usr/lib", "-I/opt/callpath/include", "-o", "a"})
	cmd := strings.Join(final, " ")
	if strings.Contains(cmd, "/usr/include") || strings.Contains(cmd, "-L/usr/lib") {
		t.Errorf("system dirs not filtered: %q", cmd)
	}
	n := strings.Count(cmd, "-I/opt/callpath/include")
	if n != 1 {
		t.Errorf("dep include appears %d times: %q", n, cmd)
	}
}

func TestAuthorFilterHook(t *testing.T) {
	w := testWrapper()
	w.Filter = func(arg string) bool { return arg == "-qnostaticlink" }
	cmd := strings.Join(w.Rewrite([]string{"-qnostaticlink", "-o", "a"}), " ")
	if strings.Contains(cmd, "-qnostaticlink") {
		t.Errorf("author filter ignored: %q", cmd)
	}
}

func TestExtraFlagsInjected(t *testing.T) {
	w := testWrapper()
	w.ExtraFlags = []string{"-qarch=qp"}
	final := w.Rewrite([]string{"-o", "a"})
	if final[1] != "-qarch=qp" {
		t.Errorf("arch flags not prepended: %v", final)
	}
}

func TestInvokeRecordsAndCharges(t *testing.T) {
	w := testWrapper()
	inv := w.Invoke("-c", "x.c")
	if inv.Overhead <= 0 {
		t.Error("no wrapper overhead charged")
	}
	w.Invoke("-o", "x")
	got := w.Invocations()
	if len(got) != 2 || got[0].Args[0] != "-c" {
		t.Errorf("invocations = %+v", got)
	}
	if w.TotalOverhead() != got[0].Overhead+got[1].Overhead {
		t.Error("TotalOverhead mismatch")
	}
	if got[1].Final[0] != "/usr/bin/gcc-4.9.2" {
		t.Errorf("final command = %v, want the real driver first", got[1].Final)
	}
}

func TestRPATHExtraction(t *testing.T) {
	got := RPATHs([]string{
		"gcc", "-Wl,-rpath,/opt/a/lib", "-rpath", "/opt/b/lib",
		"-rpath=/opt/c/lib", "-o", "bin",
	})
	want := []string{"/opt/a/lib", "/opt/b/lib", "/opt/c/lib"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RPATHs = %v, want %v", got, want)
	}
}

func TestWrapperSet(t *testing.T) {
	deps := []Dep{{Name: "libelf", Prefix: "/opt/libelf", Link: true}}
	ws := NewWrapperSet("/stage/env", map[string]string{
		"cc": "/usr/bin/gcc", "c++": "/usr/bin/g++", "fc": "",
	}, "/opt/pkg", deps, nil)
	if got := ws.Tools(); !reflect.DeepEqual(got, []string{"cc", "c++"}) {
		t.Errorf("Tools = %v", got)
	}
	if ws.CC() == nil || ws.Wrapper("fc") != nil {
		t.Error("driver presence not respected")
	}
	env := NewEnvironment()
	env.Set("PATH", "/usr/bin")
	ws.Apply(env)
	if env.Get("CC") != "/stage/env/cc" || env.Get("SPACK_CC") != "/usr/bin/gcc" {
		t.Errorf("CC = %q, SPACK_CC = %q", env.Get("CC"), env.Get("SPACK_CC"))
	}
	if !strings.HasPrefix(env.Get("PATH"), "/stage/env:") {
		t.Errorf("PATH = %q", env.Get("PATH"))
	}
	scripts := ws.Scripts()
	if len(scripts) != 2 || !strings.Contains(scripts["/stage/env/cc"], "dep libelf (link)") {
		t.Errorf("Scripts = %v", scripts)
	}
	ws.CC().Invoke("-o", "x")
	if ws.TotalOverhead() <= 0 || len(ws.Invocations()) != 1 {
		t.Error("set-level accounting broken")
	}
}

// TestRewriteVectors pins exact final argument vectors, including the
// corner cases of injected-flag deduplication. Every vector is the one
// the original per-call rewriting produced; the simulated wrapper cost
// depends on the vector's length, so it must not change. Each case runs
// on a Wrapper literal (flags computed on first use) and on one built by
// NewWrapperSet (flags computed with the set).
func TestRewriteVectors(t *testing.T) {
	deps := []Dep{
		{Name: "callpath", Prefix: "/opt/callpath", Link: true},
		{Name: "autoconf", Prefix: "/opt/autoconf", Link: false},
	}
	dupDeps := []Dep{
		{Name: "mpich", Prefix: "/opt/mpi", Link: false},
		{Name: "mpich-link", Prefix: "/opt/mpi", Link: true},
		{Name: "libelf", Prefix: "/opt/libelf", Link: true},
		{Name: "libelf-again", Prefix: "/opt/libelf", Link: true},
	}
	filter := func(a string) bool { return strings.HasPrefix(a, "-qno") || a == "-L/opt/callpath/lib" }
	for _, tc := range []struct {
		name      string
		real, own string
		deps      []Dep
		extra     []string
		filter    func(string) bool
		args      []string
		want      []string
	}{
		{"user flag equals injected flags", "/usr/bin/gcc", "/opt/app", deps, nil, nil,
			[]string{"-I/opt/callpath/include", "-o", "app", "-L/opt/callpath/lib", "-Wl,-rpath,/opt/app/lib", "main.o"},
			[]string{"/usr/bin/gcc", "-I/opt/autoconf/include", "-I/opt/callpath/include", "-o", "app", "-L/opt/callpath/lib", "-Wl,-rpath,/opt/app/lib", "main.o", "-Wl,-rpath,/opt/callpath/lib"}},
		{"duplicate dependency prefixes", "/usr/bin/gcc", "/opt/app", dupDeps, nil, nil,
			[]string{"-o", "app", "main.o"},
			[]string{"/usr/bin/gcc", "-I/opt/mpi/include", "-I/opt/libelf/include", "-o", "app", "main.o", "-L/opt/mpi/lib", "-Wl,-rpath,/opt/mpi/lib", "-L/opt/libelf/lib", "-Wl,-rpath,/opt/libelf/lib", "-Wl,-rpath,/opt/app/lib"}},
		{"own prefix equals a dependency prefix", "/usr/bin/gcc", "/opt/libelf", dupDeps, nil, nil,
			[]string{"-o", "app", "main.o"},
			[]string{"/usr/bin/gcc", "-I/opt/mpi/include", "-I/opt/libelf/include", "-o", "app", "main.o", "-L/opt/mpi/lib", "-Wl,-rpath,/opt/mpi/lib", "-L/opt/libelf/lib", "-Wl,-rpath,/opt/libelf/lib"}},
		{"compile only", "/usr/bin/gcc", "/opt/app", dupDeps, nil, nil,
			[]string{"-c", "x.c", "-o", "x.o", "-I/opt/mpi/include"},
			[]string{"/usr/bin/gcc", "-I/opt/libelf/include", "-c", "x.c", "-o", "x.o", "-I/opt/mpi/include"}},
		{"filter, system dirs and extra flags", "/usr/bin/xlc", "/opt/app", deps,
			[]string{"-qarch=qp", "-I/opt/callpath/include"}, filter,
			[]string{"-qnostaticlink", "-I/usr/include", "-L/usr/lib", "-Wl,-rpath,/lib64", "-L/opt/callpath/lib", "-o", "a", "a.o"},
			[]string{"/usr/bin/xlc", "-qarch=qp", "-I/opt/callpath/include", "-I/opt/callpath/include", "-I/opt/autoconf/include", "-o", "a", "a.o", "-L/opt/callpath/lib", "-Wl,-rpath,/opt/callpath/lib", "-Wl,-rpath,/opt/app/lib"}},
		{"no dependencies, no own prefix", "/usr/bin/gcc", "", nil, nil, nil,
			[]string{"-o", "a", "a.o"},
			[]string{"/usr/bin/gcc", "-o", "a", "a.o"}},
	} {
		literal := &Wrapper{Tool: "cc", Real: tc.real, OwnPrefix: tc.own, Deps: tc.deps,
			ExtraFlags: tc.extra, Filter: tc.filter}
		fromSet := NewWrapperSet("/stage/env", map[string]string{"cc": tc.real}, tc.own, tc.deps, tc.extra).CC()
		fromSet.Filter = tc.filter
		for _, w := range []*Wrapper{literal, fromSet} {
			// Twice: the second call runs on the already computed flags.
			for i := 0; i < 2; i++ {
				if got := w.Rewrite(tc.args); !reflect.DeepEqual(got, tc.want) {
					t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
				}
			}
		}
	}
}
