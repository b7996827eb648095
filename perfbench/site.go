package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/ares"
	"repro/internal/build"
	"repro/internal/buildcache"
	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/fetch"
	"repro/internal/lifecycle"
	"repro/internal/repo"
	"repro/internal/simfs"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/syntax"
)

// keysPath is where a simulated machine keeps its signing-key registry.
const keysPath = "/spack/etc/spack/keys.json"

// viewRule projects every installed package into one view directory.
const viewRule = "/spack/view/${PACKAGE}"

// jobs is the builder parallelism: the benchmark machine has two CPUs.
const jobs = 2

// site is the fixture the workloads start from: a package path, its
// configuration and compilers, a source mirror, the site signing key, and
// a store on which the Table 3 Current configurations were built from
// source.
type site struct {
	path    *repo.Path
	cfg     *config.Config
	reg     *compiler.Registry
	sources *fetch.Mirror
	// signer holds the site's private key; trustDoc is the registry a
	// consuming machine writes to trust that key under the enforce policy.
	signer   *lifecycle.Keyring
	trustDoc []byte
	store    *store.Store
	builder  *build.Builder
	conc     *concretize.Concretizer
	// current are the concrete Current configurations, in matrix order.
	current []*spec.Spec
}

// newSite builds the shared fixture; memo, when non-nil, becomes the
// concretizer's memo cache. The signing key derives from the workload
// seed, so one seed always produces the same archives.
func newSite(seed int64, memo *concretize.Cache, repos ...*repo.Repo) (*site, error) {
	s := &site{
		path:    repo.NewPath(repos...),
		cfg:     config.New(),
		reg:     compiler.LLNLRegistry(),
		sources: fetch.NewMirror(),
	}
	if err := s.cfg.Site.AddLinkRule("", viewRule); err != nil {
		return nil, err
	}
	repo.PublishAll(s.sources, repos...)

	var sd [8]byte
	binary.LittleEndian.PutUint64(sd[:], uint64(seed))
	keySeed := sha256.Sum256(append([]byte("perfbench site key "), sd[:]...))
	priv := ed25519.NewKeyFromSeed(keySeed[:])
	pub := priv.Public().(ed25519.PublicKey)
	signerDoc, err := keyDoc(lifecycle.Key{Name: "site", Public: pub, Private: priv, Trusted: true})
	if err != nil {
		return nil, err
	}
	if s.trustDoc, err = keyDoc(lifecycle.Key{Name: "site", Public: pub, Trusted: true}); err != nil {
		return nil, err
	}
	fs := simfs.New(simfs.TempFS)
	if s.signer, err = openKeyring(fs, signerDoc); err != nil {
		return nil, err
	}
	if s.store, err = store.New(fs, "/spack/opt", store.SpackLayout{}); err != nil {
		return nil, err
	}
	s.builder = s.newBuilder(s.store)
	s.builder.CachePolicy = build.CacheNever

	s.conc = concretize.New(s.path, s.cfg, s.reg)
	s.conc.Cache = memo
	for _, e := range ares.MatrixEntries() {
		if e.Config != ares.Current {
			continue
		}
		concrete, err := s.conc.Concretize(e.Abstract)
		if err != nil {
			return nil, fmt.Errorf("concretize %s: %w", ares.SpecFor(e.Cell, e.Config), err)
		}
		if _, err := s.builder.Build(concrete); err != nil {
			return nil, fmt.Errorf("build %s: %w", concrete.Name, err)
		}
		s.current = append(s.current, concrete)
	}
	return s, nil
}

// newBuilder assembles a builder over a store with the site's path,
// sources and configuration.
func (s *site) newBuilder(st *store.Store) *build.Builder {
	b := build.NewBuilder(st, s.path, s.reg)
	b.Mirror = s.sources
	b.Config = s.cfg
	b.Jobs = jobs
	return b
}

// push signs and pushes every Current configuration into a cache.
func (s *site) push(bc *buildcache.Cache) error {
	bc.Signer = s.signer
	for _, c := range s.current {
		if _, err := bc.PushDAG(s.store, c); err != nil {
			return fmt.Errorf("push %s: %w", c.Name, err)
		}
	}
	return nil
}

// isMPI feeds the views' ${MPINAME} placeholder.
func (s *site) isMPI(name string) bool {
	def, _, ok := s.path.Get(name)
	return ok && def.ProvidesVirtualName("mpi")
}

// keyDoc renders a key registry document holding one key under the
// enforce policy, in the format lifecycle.OpenKeyring reads.
func keyDoc(k lifecycle.Key) ([]byte, error) {
	return json.Marshal(struct {
		Keys   []lifecycle.Key `json:"keys"`
		Policy string          `json:"policy"`
	}{[]lifecycle.Key{k}, string(buildcache.TrustEnforce)})
}

// openKeyring writes a registry document onto a machine and opens it.
func openKeyring(fs *simfs.FS, doc []byte) (*lifecycle.Keyring, error) {
	if err := fs.MkdirAll("/spack/etc/spack"); err != nil {
		return nil, err
	}
	if err := fs.WriteFile(keysPath, doc); err != nil {
		return nil, err
	}
	return lifecycle.OpenKeyring(fs, keysPath)
}

// tableExprs returns the 36 Table 3 configurations as spec expressions.
func tableExprs() []string {
	var out []string
	for _, cell := range ares.Matrix() {
		for _, cfg := range cell.Configs {
			out = append(out, ares.SpecFor(cell, cfg))
		}
	}
	return out
}

// parse is syntax.Parse under a span.
func parse(ot *opTrace, expr string) (*spec.Spec, error) {
	sp := ot.begin("syntax.parse")
	a, err := syntax.Parse(expr)
	ot.end(sp)
	return a, err
}
