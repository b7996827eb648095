// Package views implements Spack views (SC'15 §4.3.1): symbolic-link based
// directory layouts that project the high-dimensional space of concretized
// specs onto human-readable paths like /opt/mpileaks-1.0-openmpi. Several
// installations may map to the same link name; conflicts are resolved by a
// well-defined preference order — site/user compiler_order first, then
// newer package versions built with newer compilers — so link contents are
// consistent and reproducible.
package views

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/config"
	"repro/internal/simfs"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/txn"
)

// ExpandTemplate substitutes the rule placeholders of §4.3.1 —
// ${PACKAGE}, ${VERSION}, ${COMPILER}, ${COMP_VERSION}, ${MPINAME},
// ${MPIVERSION}, ${ARCH}, ${HASH} — for one concrete spec. isMPI
// classifies MPI providers for the ${MPINAME} placeholder (nil disables
// it; specs without MPI render "serial"). Anything else, an unknown
// ${NAME} included, is copied verbatim. The template is scanned once, and
// a value is computed only when its placeholder occurs.
func ExpandTemplate(tmpl string, s *spec.Spec, isMPI func(string) bool) string {
	var b strings.Builder
	b.Grow(len(tmpl) + 32)
	for {
		i := strings.Index(tmpl, "${")
		if i < 0 {
			break
		}
		b.WriteString(tmpl[:i])
		tmpl = tmpl[i:]
		end := strings.IndexByte(tmpl, '}')
		if end < 0 {
			break
		}
		v, ok := placeholder(tmpl[2:end], s, isMPI)
		if !ok {
			// Not a placeholder: keep the "$" and rescan from the next
			// byte, which may open one.
			b.WriteByte('$')
			tmpl = tmpl[1:]
			continue
		}
		b.WriteString(v)
		tmpl = tmpl[end+1:]
	}
	b.WriteString(tmpl)
	return b.String()
}

// placeholder returns the value of the template placeholder ${name}.
func placeholder(name string, s *spec.Spec, isMPI func(string) bool) (string, bool) {
	switch name {
	case "PACKAGE":
		return s.Name, true
	case "VERSION":
		v, _ := s.ConcreteVersion()
		return v.String(), true
	case "COMPILER":
		return s.Compiler.Name, true
	case "COMP_VERSION":
		return s.Compiler.Versions.String(), true
	case "MPINAME", "MPIVERSION":
		mpiName, mpiVer := "serial", "none"
		if mpi := s.FirstDep(isMPI); mpi != nil {
			mpiName = mpi.Name
			if v, ok := mpi.ConcreteVersion(); ok {
				mpiVer = v.String()
			}
		}
		if name == "MPINAME" {
			return mpiName, true
		}
		return mpiVer, true
	case "ARCH":
		return s.Arch, true
	case "HASH":
		return s.DAGHash(), true
	}
	return "", false
}

// Link records one projected symlink.
type Link struct {
	Path   string // the link location, e.g. /opt/mpileaks-1.0-openmpi
	Target string // the chosen install prefix
	Spec   *spec.Spec
}

// Manager maintains the link forest for a store according to configured
// rules.
type Manager struct {
	FS     *simfs.FS
	Config *config.Config
	// IsMPI feeds the ${MPINAME} placeholder.
	IsMPI func(name string) bool
	// Journal is the transaction journal directory Refresh journals its
	// own transactions into; empty disables the journal (link edits are
	// still applied atomically via temp + rename). Wire it to the store's
	// JournalDir so crashed refreshes are recovered with everything else.
	Journal string
	// Rank overrides the compiler preference used to break link conflicts;
	// nil uses Config.CompilerRank (merged user-then-site order).
	// Environment views use it to select the site/user conflict policy.
	Rank func(spec.Compiler) int

	mu    sync.Mutex      // guards links (concurrent installs refresh concurrently)
	links map[string]Link // path -> resolved link
}

// NewManager creates a view manager.
func NewManager(fs *simfs.FS, cfg *config.Config, isMPI func(string) bool) *Manager {
	return &Manager{FS: fs, Config: cfg, IsMPI: isMPI, links: make(map[string]Link)}
}

// rank resolves the compiler preference function in effect.
func (m *Manager) rank(c spec.Compiler) int {
	if m.Rank != nil {
		return m.Rank(c)
	}
	return m.Config.CompilerRank(c)
}

// prefer reports whether candidate a beats b for the same link name,
// implementing §4.3.1's order of preference: configured compiler order
// first, then newer package versions, then newer compilers, then a
// deterministic hash tiebreak.
func (m *Manager) prefer(a, b *store.Record) bool {
	ra := m.rank(a.Spec.Compiler)
	rb := m.rank(b.Spec.Compiler)
	if ra != rb {
		return ra < rb
	}
	va, _ := a.Spec.ConcreteVersion()
	vb, _ := b.Spec.ConcreteVersion()
	if c := va.Compare(vb); c != 0 {
		return c > 0
	}
	ca, okA := a.Spec.Compiler.Versions.Concrete()
	cb, okB := b.Spec.Compiler.Versions.Concrete()
	if okA && okB {
		if c := ca.Compare(cb); c != 0 {
			return c > 0
		}
	}
	return a.Spec.DAGHash() < b.Spec.DAGHash()
}

// Compute maps every installed record through every matching rule and
// resolves conflicts, returning the final link set sorted by path. It does
// not touch the filesystem. One snapshot is taken from the store (via the
// Querier seam) and reused across rules, instead of copying the whole
// index once per rule.
func (m *Manager) Compute(st store.Querier) []Link {
	recs := st.Select(func(r *store.Record) bool { return !r.Spec.External })
	best := make(map[string]*store.Record)
	for _, rule := range m.Config.LinkRules() {
		for _, rec := range recs {
			if rule.Constraint != nil && !rec.Spec.Satisfies(rule.Constraint) {
				continue
			}
			path := ExpandTemplate(rule.Template, rec.Spec, m.IsMPI)
			if cur, ok := best[path]; !ok || m.prefer(rec, cur) {
				best[path] = rec
			}
		}
	}
	out := make([]Link, 0, len(best))
	for path, rec := range best {
		out = append(out, Link{Path: path, Target: rec.Prefix, Spec: rec.Spec})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// StageRefresh computes the desired link set and stages the filesystem
// delta — stale links removed, missing ones created, changed ones
// atomically retargeted — into a caller-owned transaction; nothing
// touches the filesystem until the transaction commits. Each pruneDir is
// additionally swept for symlinks that are physically present but no
// longer desired (links materialized by an earlier process or by another
// manager of a shared view directory).
func (m *Manager) StageRefresh(t *txn.Txn, st store.Querier, pruneDirs ...string) ([]Link, error) {
	desired := m.Compute(st)
	want := make(map[string]Link, len(desired))
	for _, l := range desired {
		want[l.Path] = l
	}
	stale := make(map[string]bool)
	m.mu.Lock()
	for path := range m.links {
		if _, keep := want[path]; !keep {
			stale[path] = true
		}
	}
	m.mu.Unlock()
	for _, dir := range pruneDirs {
		names, err := m.FS.List(dir)
		if err != nil {
			continue // view directory not materialized yet
		}
		for _, name := range names {
			p := dir + "/" + name
			if !m.FS.IsSymlink(p) {
				continue
			}
			if _, keep := want[p]; !keep {
				stale[p] = true
			}
		}
	}
	paths := make([]string, 0, len(stale))
	for p := range stale {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		t.StageUnlink(p)
	}
	for _, l := range desired {
		// Skip links already pointing at the chosen prefix; everything
		// else is created or retargeted atomically at commit.
		if cur, err := m.FS.Readlink(l.Path); err == nil && cur == l.Target {
			continue
		}
		t.StageLink(l.Path, l.Target)
	}
	t.OnCommit(func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		m.links = make(map[string]Link, len(want))
		for p, l := range want {
			m.links[p] = l
		}
	})
	return desired, nil
}

// Refresh synchronizes the filesystem with the computed link set: stale
// managed links are removed, new ones created, changed ones retargeted
// (the automatic update on install/removal of §4.3.1). The whole delta
// runs as one journaled transaction, so a crash mid-update never leaves
// the view half-linked.
func (m *Manager) Refresh(st store.Querier) ([]Link, error) {
	t := txn.Begin(m.FS, m.Journal)
	defer t.Rollback()
	desired, err := m.StageRefresh(t, st)
	if err != nil {
		return nil, err
	}
	if err := t.Commit(nil); err != nil {
		return nil, err
	}
	return desired, nil
}

// Links returns the currently materialized links sorted by path.
func (m *Manager) Links() []Link {
	m.mu.Lock()
	out := make([]Link, 0, len(m.links))
	for _, l := range m.links {
		out = append(out, l)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}
