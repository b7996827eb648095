package buildenv

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// Per-invocation cost of going through a wrapper script instead of the
// real driver: one extra fork/exec plus argument rewriting. This is the
// knob behind the paper's "around 10%" wrapper overhead (Fig. 11) — small
// per call, noticeable on configure-heavy builds that run the compiler
// hundreds of times on tiny files.
const (
	InvocationOverhead = 240 * time.Microsecond
	PerFlagOverhead    = 4 * time.Microsecond
)

// systemDirs are directories the wrappers filter out of user-supplied
// flags: injecting or keeping them would defeat isolation by letting a
// build pick up system headers/libraries over Spack-installed ones.
var systemDirs = map[string]bool{
	"/usr/include":       true,
	"/usr/local/include": true,
	"/usr/lib":           true,
	"/usr/lib64":         true,
	"/usr/local/lib":     true,
	"/lib":               true,
	"/lib64":             true,
}

// filteredSystemFlag reports whether a flag points into a system
// directory and must be dropped.
func filteredSystemFlag(arg string) bool {
	var dir string
	switch {
	case strings.HasPrefix(arg, "-I"):
		dir = arg[2:]
	case strings.HasPrefix(arg, "-L"):
		dir = arg[2:]
	case strings.HasPrefix(arg, "-Wl,-rpath,"):
		dir = arg[len("-Wl,-rpath,"):]
	default:
		return false
	}
	return systemDirs[dir]
}

// Invocation records one compiler call through a wrapper: the arguments
// the build system issued, the final rewritten command line (real driver
// first), and the simulated overhead of the wrapper itself.
type Invocation struct {
	Tool     string
	Args     []string
	Final    []string
	Overhead time.Duration
}

// Wrapper is one compiler wrapper (§3.5.2): it substitutes the real
// driver and rewrites arguments so the build finds its dependencies and
// the result runs without LD_LIBRARY_PATH:
//
//   - `-I<dep>/include` is injected for every dependency;
//   - `-L<dep>/lib` and `-Wl,-rpath,<dep>/lib` are injected for
//     *link-type* dependencies only (build tools stay out of RPATHs),
//     plus an RPATH to the package's own lib directory — link steps only;
//   - architecture-description flags (config.ArchDescription) are
//     prepended;
//   - user flags pointing into system directories are filtered, and a
//     package-author Filter hook can drop additional flags.
type Wrapper struct {
	Tool       string // wrapper name: "cc", "c++", "f77", "fc"
	Real       string // path of the real compiler driver
	OwnPrefix  string // the package's install prefix (own-lib RPATH)
	Deps       []Dep
	ExtraFlags []string
	// Filter is the package-author flag filter: return true to drop an
	// argument before rewriting.
	Filter func(arg string) bool

	injOnce sync.Once
	inj     *injectedFlags

	mu  sync.Mutex
	inv []Invocation
}

// Rewrite applies the rewriting rules to one argument vector and returns
// the final command line, real driver first. A vector containing "-c" is
// a compile-only step and gets no link-time flags. An injected flag the
// user already passed is not repeated.
func (w *Wrapper) Rewrite(args []string) []string {
	inj := w.injected()
	compileOnly := false
	user := make([]string, 0, len(args))
	for _, a := range args {
		if a == "-c" {
			compileOnly = true
		}
		if w.Filter != nil && w.Filter(a) {
			continue
		}
		if filteredSystemFlag(a) {
			continue
		}
		user = append(user, a)
	}
	final := make([]string, 0, 1+len(w.ExtraFlags)+len(inj.include)+len(user)+len(inj.link))
	final = append(final, w.Real)
	final = append(final, w.ExtraFlags...)
	final = appendMissing(final, inj.include, user)
	final = append(final, user...)
	if !compileOnly {
		final = appendMissing(final, inj.link, user)
	}
	return final
}

// appendMissing appends each flag not among the user's arguments.
func appendMissing(final, flags, user []string) []string {
	for _, f := range flags {
		if !slices.Contains(user, f) {
			final = append(final, f)
		}
	}
	return final
}

// injectedFlags is what a wrapper adds to every call, deduplicated and in
// injection order: -I for every dependency, and for link steps -L and
// -Wl,-rpath for link-type dependencies plus the own-lib RPATH.
type injectedFlags struct {
	include, link []string
}

func newInjectedFlags(deps []Dep, ownPrefix string) *injectedFlags {
	inj := &injectedFlags{}
	add := func(list []string, flag string) []string {
		if slices.Contains(list, flag) {
			return list
		}
		return append(list, flag)
	}
	for _, d := range deps {
		inj.include = add(inj.include, "-I"+d.Prefix+"/include")
	}
	for _, d := range deps {
		if d.Link {
			inj.link = add(inj.link, "-L"+d.Prefix+"/lib")
			inj.link = add(inj.link, "-Wl,-rpath,"+d.Prefix+"/lib")
		}
	}
	if ownPrefix != "" {
		inj.link = add(inj.link, "-Wl,-rpath,"+ownPrefix+"/lib")
	}
	return inj
}

// injected returns the wrapper's injected flags: those its WrapperSet
// computed, or, for a Wrapper built as a literal, ones computed from Deps
// and OwnPrefix on first use.
func (w *Wrapper) injected() *injectedFlags {
	w.injOnce.Do(func() {
		if w.inj == nil {
			w.inj = newInjectedFlags(w.Deps, w.OwnPrefix)
		}
	})
	return w.inj
}

// Invoke rewrites one compiler call, records it, and returns the
// invocation including its simulated overhead.
func (w *Wrapper) Invoke(args ...string) Invocation {
	final := w.Rewrite(args)
	inv := Invocation{
		Tool:     w.Tool,
		Args:     append([]string(nil), args...),
		Final:    final,
		Overhead: InvocationOverhead + PerFlagOverhead*time.Duration(len(final)),
	}
	w.mu.Lock()
	w.inv = append(w.inv, inv)
	w.mu.Unlock()
	return inv
}

// Invocations returns a copy of the recorded calls, in order.
func (w *Wrapper) Invocations() []Invocation {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Invocation(nil), w.inv...)
}

// TotalOverhead sums the overhead of every recorded call.
func (w *Wrapper) TotalOverhead() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	var t time.Duration
	for _, i := range w.inv {
		t += i.Overhead
	}
	return t
}

// Script renders the wrapper as a shell-script stand-in, written into the
// stage so the on-disk build tree looks like Spack's.
func (w *Wrapper) Script() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#!/bin/sh\n# spack %s wrapper\n", w.Tool)
	fmt.Fprintf(&b, "# real driver: %s\n", w.Real)
	for _, d := range w.Deps {
		kind := "build"
		if d.Link {
			kind = "link"
		}
		fmt.Fprintf(&b, "# dep %s (%s): %s\n", d.Name, kind, d.Prefix)
	}
	b.WriteString("exec_rewritten \"$@\"\n")
	return b.String()
}

// RPATHs extracts the runtime search paths a command line will embed:
// `-Wl,-rpath,DIR`, `-rpath DIR` and `-rpath=DIR` spellings.
func RPATHs(cmdline []string) []string {
	var out []string
	for i := 0; i < len(cmdline); i++ {
		a := cmdline[i]
		switch {
		case strings.HasPrefix(a, "-Wl,-rpath,"):
			out = append(out, a[len("-Wl,-rpath,"):])
		case strings.HasPrefix(a, "-rpath="):
			out = append(out, a[len("-rpath="):])
		case a == "-rpath" && i+1 < len(cmdline):
			out = append(out, cmdline[i+1])
			i++
		}
	}
	return out
}

// BinaryRPATHs extracts the runtime search paths recorded in a simulated
// installed binary or shared object (lines of the form "RPATH <dir>") —
// the on-disk counterpart of RPATHs, which parses link command lines. The
// binary build cache uses it to verify that relocation rewrote every
// embedded rpath into the target store.
func BinaryRPATHs(content []byte) []string {
	var out []string
	for _, line := range strings.Split(string(content), "\n") {
		if rest, ok := strings.CutPrefix(line, "RPATH "); ok && rest != "" {
			out = append(out, rest)
		}
	}
	return out
}

// toolOrder fixes the iteration order of a WrapperSet.
var toolOrder = []string{"cc", "c++", "f77", "fc"}

// WrapperSet bundles the wrappers for one build: one per language driver
// the toolchain provides, all sharing the dependency view.
type WrapperSet struct {
	Dir      string // directory the wrapper scripts live in (on the stage)
	wrappers map[string]*Wrapper
}

// NewWrapperSet creates wrappers for the drivers present in the given
// tool→real-driver map (keys "cc", "c++", "f77", "fc"; empty values are
// skipped).
func NewWrapperSet(dir string, drivers map[string]string, ownPrefix string, deps []Dep, extraFlags []string) *WrapperSet {
	ws := &WrapperSet{Dir: dir, wrappers: make(map[string]*Wrapper)}
	inj := newInjectedFlags(deps, ownPrefix)
	for _, tool := range toolOrder {
		real := drivers[tool]
		if real == "" {
			continue
		}
		ws.wrappers[tool] = &Wrapper{
			Tool: tool, Real: real, OwnPrefix: ownPrefix,
			Deps: deps, ExtraFlags: extraFlags, inj: inj,
		}
	}
	return ws
}

// Wrapper returns the wrapper for a tool name, or nil.
func (ws *WrapperSet) Wrapper(tool string) *Wrapper { return ws.wrappers[tool] }

// CC returns the C-compiler wrapper (the one the build simulator drives).
func (ws *WrapperSet) CC() *Wrapper { return ws.wrappers["cc"] }

// Apply points an environment at the wrappers: CC/CXX/F77/FC are set to
// the wrapper paths (the real drivers recorded as SPACK_CC etc.) and the
// wrapper directory is prepended to PATH — exactly how Spack makes build
// systems pick the wrappers up transparently (§3.5.2).
func (ws *WrapperSet) Apply(env *Environment) {
	vars := map[string]string{"cc": "CC", "c++": "CXX", "f77": "F77", "fc": "FC"}
	for _, tool := range toolOrder {
		w := ws.wrappers[tool]
		if w == nil {
			continue
		}
		env.Set(vars[tool], ws.Dir+"/"+tool)
		env.Set("SPACK_"+vars[tool], w.Real)
	}
	env.AppendPath("PATH", ws.Dir)
}

// Scripts returns path→content for every wrapper script, for the builder
// to materialize on the stage filesystem.
func (ws *WrapperSet) Scripts() map[string]string {
	out := make(map[string]string, len(ws.wrappers))
	for tool, w := range ws.wrappers {
		out[ws.Dir+"/"+tool] = w.Script()
	}
	return out
}

// Tools lists the wrapped tool names, in canonical order.
func (ws *WrapperSet) Tools() []string {
	var out []string
	for _, tool := range toolOrder {
		if ws.wrappers[tool] != nil {
			out = append(out, tool)
		}
	}
	return out
}

// Invocations returns every recorded call across the set, grouped by tool
// in canonical order.
func (ws *WrapperSet) Invocations() []Invocation {
	var out []Invocation
	for _, tool := range ws.Tools() {
		out = append(out, ws.wrappers[tool].Invocations()...)
	}
	return out
}

// TotalOverhead sums the wrapper overhead across the whole set.
func (ws *WrapperSet) TotalOverhead() time.Duration {
	if ws == nil {
		return 0
	}
	var t time.Duration
	for _, w := range ws.wrappers {
		t += w.TotalOverhead()
	}
	return t
}
