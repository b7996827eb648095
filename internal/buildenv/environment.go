// Package buildenv implements the build-environment side of SC'15 §3.5:
// per-build isolated environments (§3.5.1) and compiler wrappers that
// rewrite every compiler invocation to inject dependency include, library
// and RPATH flags (§3.5.2). The environment is a small deterministic
// key/value model — enough to reproduce the paper's guarantee that a
// package finds its dependencies regardless of the user's shell state —
// and the wrappers record exactly what they rewrote, so installed
// binaries (and tests) can verify the embedded RPATHs.
package buildenv

import (
	"sort"
	"strings"
)

// Dep describes one dependency visible to a build: its install prefix and
// whether the depending package links against it. Build-only tools
// (cmake, autoconf) have Link=false, which keeps them out of -L/-rpath —
// the typed-edge behavior §3.5.2 needs so binaries never RPATH a tool.
type Dep struct {
	Name   string
	Prefix string
	Link   bool
}

// Environment is an isolated set of environment variables for one build.
// Spack "sets up its own environment" for each build (§3.5.1); nothing
// leaks in from the calling process.
type Environment struct {
	vars map[string]string
}

// NewEnvironment returns an empty environment.
func NewEnvironment() *Environment {
	return &Environment{vars: make(map[string]string)}
}

// Set assigns a variable.
func (e *Environment) Set(key, value string) { e.vars[key] = value }

// Get returns a variable's value ("" when unset).
func (e *Environment) Get(key string) string { return e.vars[key] }

// Lookup returns a variable's value and whether it is set.
func (e *Environment) Lookup(key string) (string, bool) {
	v, ok := e.vars[key]
	return v, ok
}

// AppendPath prepends a directory onto a PATH-style colon-separated
// variable (the semantics of a module file's prepend-path/dk_alter). An
// existing occurrence of the directory is removed first, so repeated
// application is idempotent and the newest prepend always wins.
func (e *Environment) AppendPath(key, dir string) {
	if dir == "" {
		return
	}
	cur := e.vars[key]
	if cur == "" {
		e.vars[key] = dir
		return
	}
	parts := strings.Split(cur, ":")
	out := make([]string, 0, len(parts)+1)
	out = append(out, dir)
	for _, p := range parts {
		if p != dir && p != "" {
			out = append(out, p)
		}
	}
	e.vars[key] = strings.Join(out, ":")
}

// Keys returns the set variable names, sorted.
func (e *Environment) Keys() []string {
	out := make([]string, 0, len(e.vars))
	for k := range e.vars {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Serialize renders the environment deterministically (sorted KEY=VALUE
// lines) — the form written into build logs so provenance is stable.
func (e *Environment) Serialize() string {
	var b strings.Builder
	for _, k := range e.Keys() {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(e.vars[k])
		b.WriteByte('\n')
	}
	return b.String()
}

// Clone returns an independent copy.
func (e *Environment) Clone() *Environment {
	out := NewEnvironment()
	for k, v := range e.vars {
		out.vars[k] = v
	}
	return out
}

// ForBuild assembles the isolated environment of §3.5.1 for building one
// package: a minimal base PATH (the caller's environment is deliberately
// NOT inherited), dependency bin directories on PATH, and dependency
// prefixes on CMAKE_PREFIX_PATH / PKG_CONFIG_PATH so configure scripts
// and CMake find them without any user setup.
func ForBuild(pkgName, prefix string, deps []Dep) *Environment {
	env := NewEnvironment()
	env.Set("SPACK_PACKAGE", pkgName)
	env.Set("SPACK_PREFIX", prefix)
	env.Set("PATH", "/usr/bin:/bin")
	// Reverse order so the first-listed dependency ends up first on PATH.
	for i := len(deps) - 1; i >= 0; i-- {
		d := deps[i]
		env.AppendPath("PATH", d.Prefix+"/bin")
		env.AppendPath("CMAKE_PREFIX_PATH", d.Prefix)
		env.AppendPath("PKG_CONFIG_PATH", d.Prefix+"/lib/pkgconfig")
	}
	return env
}
