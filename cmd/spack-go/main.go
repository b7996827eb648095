// Command spack-go is the command-line front end of the package manager,
// mirroring the commands the paper demonstrates: spec (concretize and
// show), install, find, uninstall, providers, list, info, compilers,
// activate/deactivate, and view. It operates on a fresh simulated machine
// per invocation (the library is the real artifact; the CLI demonstrates
// the full workflow end to end, including the ARES site repository).
package main

import (
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ares"
	"repro/internal/build"
	"repro/internal/buildcache"
	"repro/internal/concretize"
	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/modules"
	"repro/internal/repo"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	var (
		flagNFS       = flag.Bool("nfs-stage", false, "stage builds on the NFS latency profile")
		flagNoWrap    = flag.Bool("no-wrappers", false, "disable compiler wrappers")
		flagJobs      = flag.Int("jobs", 4, "parallel build jobs")
		flagAres      = flag.Bool("ares", true, "include the llnl.ares site repository")
		flagSynth     = flag.Int("synthesize", 0, "add N synthetic packages to the repository")
		flagProvider  = flag.String("mpi-provider", "", "preferred MPI provider (site policy)")
		flagCache     = flag.String("concretize-cache", "", "persist the concretization memo cache to this file across invocations")
		flagNoBinary  = flag.Bool("no-cache", false, "never install from the binary build cache")
		flagOnlyCache = flag.Bool("cache-only", false, "install from the binary build cache only; never build from source")
		flagCacheURL  = flag.String("cache-url", "", "push/pull binary archives via a remote spack-go serve daemon at this URL")
		flagReuse     = flag.Bool("reuse", false, "concretize against installed and cached packages, preferring existing hashes over newest versions")
	)
	flag.Usage = func() { usage(os.Stderr) }
	flag.Parse()
	if flag.NArg() == 0 {
		usage(os.Stderr)
		os.Exit(2)
	}

	var opts []core.Option
	if *flagNFS {
		opts = append(opts, core.WithNFSStage())
	}
	if *flagNoWrap {
		opts = append(opts, core.WithoutWrappers())
	}
	opts = append(opts, core.WithJobs(*flagJobs))
	if *flagNoBinary && *flagOnlyCache {
		fatal(fmt.Errorf("-no-cache and -cache-only are mutually exclusive"))
	}
	if *flagNoBinary {
		opts = append(opts, core.WithCachePolicy(build.CacheNever))
	}
	if *flagOnlyCache {
		opts = append(opts, core.WithCachePolicy(build.CacheOnly))
	}
	var remoteBE *service.HTTPBackend
	if *flagCacheURL != "" {
		remoteBE = service.NewHTTPBackend(*flagCacheURL)
		opts = append(opts, core.WithBuildCacheBackend(remoteBE))
	}
	if *flagAres {
		opts = append(opts, core.WithRepos(ares.Repo()))
	}
	if *flagSynth > 0 {
		r := repo.NewRepo("synthetic")
		repo.Synthesize(r, *flagSynth, 2015)
		opts = append(opts, core.WithRepos(r))
	}

	s, err := core.New(opts...)
	if err != nil {
		fatal(err)
	}
	if remoteBE != nil {
		// Remote pushes carry a detached signature header when this
		// machine's keyring has a signing identity, so a daemon enforcing
		// a trust policy accepts them.
		remoteBE.Signer = s.Keyring
	}
	if *flagProvider != "" {
		s.Config.Site.SetProviderOrder("mpi", *flagProvider)
	}
	if *flagReuse {
		s.Concretizer.Reuse = concretize.MultiReuse(s.Store, s.BuildCache)
	}

	if *flagCache != "" {
		if err := s.Concretizer.Cache.LoadFile(*flagCache); err != nil {
			fmt.Fprintf(os.Stderr, "warning: ignoring concretize cache %s: %v\n", *flagCache, err)
		}
	}

	cmd, args := flag.Arg(0), flag.Args()[1:]
	if err := run(os.Stdout, s, cmd, args); err != nil {
		fatal(err)
	}
	if *flagCache != "" {
		if err := s.Concretizer.Cache.SaveFile(*flagCache); err != nil {
			fmt.Fprintf(os.Stderr, "warning: could not save concretize cache %s: %v\n", *flagCache, err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}

// root is the command table, the CLI's one description of its verbs. It
// is built in init because the help verb walks it.
var root *verb

func init() {
	root = &verb{args: "[flags] <command> [args]", help: "a Go reproduction of the Spack package manager (SC'15)", children: []*verb{
		{name: "spec", args: "[-why-not] <spec>", help: "concretize a spec and print the full DAG",
			min: 1, max: 1, argErr: "expected exactly one spec argument", flags: cmdSpec},
		{name: "install", args: "<spec>...", help: "concretize and build specs into the store",
			min: 1, max: many, argErr: "install needs at least one spec", run: cmdInstall},
		{name: "find", args: "[spec]", help: "list installed packages matching a query", max: 1, run: cmdFind},
		{name: "uninstall", args: "<spec>", help: "remove an installed package",
			min: 1, max: 1, argErr: "expected exactly one spec argument", run: cmdUninstall},
		{name: "providers", args: "<virtual>", help: "list providers of a virtual interface",
			min: 1, max: 1, argErr: "expected exactly one virtual argument", run: cmdProviders},
		{name: "list", args: "[substring]", help: "list known packages", max: 1, run: cmdList},
		{name: "info", args: "<package>", help: "show a package's directives",
			min: 1, max: 1, argErr: "expected exactly one package argument", run: cmdInfo},
		{name: "compilers", help: "list registered compiler toolchains", run: cmdCompilers},
		{name: "activate", args: "<spec>", help: "link an extension into its extendee",
			min: 1, max: 1, argErr: "expected exactly one extension spec argument", run: cmdActivate},
		{name: "deactivate", args: "<spec>", help: "unlink an extension",
			min: 1, max: 1, argErr: "expected exactly one extension spec argument", run: cmdDeactivate},
		{name: "view", args: "<rule> <spec>...", help: "install specs and project them through a link rule",
			min: 2, max: many, argErr: "view needs a link template and at least one spec", run: cmdView},
		{name: "graph", args: "<spec>", help: "concretize and emit a Graphviz DOT graph",
			min: 1, max: 1, argErr: "expected exactly one spec argument", run: cmdGraph},
		{name: "versions", args: "<package>", help: "list known and mirror-available versions",
			min: 1, max: 1, argErr: "expected exactly one package argument", run: cmdVersions},
		{name: "checksum", args: "<package>", help: "fetch and checksum new mirror releases",
			min: 1, max: 1, argErr: "expected exactly one package argument", run: cmdChecksum},
		{name: "diff", args: "<specA> <specB>", help: "compare two concretized configurations",
			min: 2, max: 2, argErr: "diff needs exactly two specs", run: cmdDiff},
		{name: "lmod", args: "<spec>...", help: "install specs and generate an Lmod hierarchy",
			min: 1, max: many, argErr: "lmod needs at least one spec", run: cmdLmod},
		{name: "table1", args: "<spec>", help: "render a concretized spec under each site layout",
			min: 1, max: 1, argErr: "expected exactly one spec argument", run: cmdTable1},
		{name: "splice", args: "[-dry-run] [-replace DEP] <root> <replacement>",
			help: "rewire an installed root onto a replacement dependency without rebuilding", min: 2, max: 2,
			argErr: "splice needs <root-spec> <replacement-spec>", flags: cmdSplice},
		{name: "serve", args: "[flags]", help: "run the buildcache/concretize/install HTTP daemon", flags: cmdServe},
		{name: "work", args: "-url <daemon> [flags]", help: "run this machine as a remote build worker (lease loop)", flags: cmdWork},
		{name: "gc", args: "[-dry-run]", help: "reclaim installs unreachable from any root or env lockfile",
			argErr: "gc takes no arguments", flags: cmdGC},
		{name: "buildcache", args: "<subcommand> [args]", help: "pack, pull, list, prune, and sign binary archives", children: []*verb{
			{name: "push", args: "<spec>...", help: "install specs and pack them as binary archives",
				min: 1, max: many, argErr: "buildcache push needs at least one spec", run: cmdBuildcachePush},
			{name: "pull", args: "<spec>...", help: "install specs from binary archives only",
				min: 1, max: many, argErr: "buildcache pull needs at least one spec", run: cmdBuildcachePull},
			{name: "list", help: "list cached binary archives (origin + signature status)", run: cmdBuildcacheList},
			{name: "prune", args: "-max-size N | -max-age D [-dry-run]", help: "evict cold archives (LRU) until bounds fit",
				flags: cmdBuildcachePrune},
			{name: "keys", args: "[<subcommand> [args]]", help: "print archive SHA-256 checksums, or manage signing keys",
				run: cmdKeysChecksums, children: []*verb{
					{name: "generate", args: "<name>", help: "mint a trusted Ed25519 signing key",
						min: 1, max: 1, argErr: "expected exactly one key name argument", run: cmdKeysGenerate},
					{name: "add", args: "<name> <hex-pub>", help: "import another site's public key (untrusted)",
						min: 2, max: 2, argErr: "buildcache keys add needs <name> <hex-public-key>", run: cmdKeysAdd},
					{name: "trust", args: "<name>", help: "mark an imported key trusted",
						min: 1, max: 1, argErr: "expected exactly one key name argument", run: cmdKeysTrust},
					{name: "list", help: "list registered keys", run: cmdKeysList},
					{name: "policy", args: "[off|warn|enforce]", help: "show or set the trust policy", max: 1, run: cmdKeysPolicy},
					{name: "fetch", args: "[-trust] <url>", help: "import a serve daemon's public keys",
						min: 1, max: 1, argErr: "expected exactly one daemon URL argument", flags: cmdKeysFetch},
				}},
		}},
		{name: "env", args: "<subcommand> [args]", help: "manage named environments: spec manifests installed as one transaction", children: []*verb{
			{name: "create", args: "[-view PATH] <name> [spec...]", help: "create a named environment",
				min: 1, max: many, argErr: "env create needs a name", flags: cmdEnvCreate},
			{name: "add", args: "<name> <spec>...", help: "add specs to an environment manifest",
				min: 2, max: many, argErr: "env add needs a name and at least one spec", run: cmdEnvEdit(true)},
			{name: "rm", args: "<name> <spec>...", help: "remove specs from an environment manifest",
				min: 2, max: many, argErr: "env rm needs a name and at least one spec", run: cmdEnvEdit(false)},
			{name: "install", args: "[-jobs N] [-reuse] <name> [spec...]", help: "concretize, lock, and apply as one transaction",
				min: 1, max: many, argErr: "env install needs an environment name", flags: cmdEnvInstall},
			{name: "status", args: "<name>", help: "show manifest, lockfile, and pending delta",
				min: 1, max: 1, argErr: "expected exactly one environment name argument", run: cmdEnvStatus},
			{name: "uninstall", args: "<name>", help: "remove an environment's installs and view",
				min: 1, max: 1, argErr: "expected exactly one environment name argument", run: cmdEnvUninstall},
			{name: "list", help: "list environments", run: cmdEnvList},
		}},
		{name: "help", args: "[command...]", help: "print the full command reference, or one command's", max: many, run: cmdHelp},
	}}
}

func cmdSpec(fs *flag.FlagSet) runFunc {
	whyNot := fs.Bool("why-not", false, "on unsatisfiable input, explain the minimal set of conflicting constraints")
	return func(w io.Writer, s *core.Spack, args []string) error {
		expr := args[0]
		concrete, err := s.Spec(expr)
		if err != nil {
			var unsat *concretize.UnsatError
			if *whyNot && errors.As(err, &unsat) {
				fmt.Fprintln(w, unsat.WhyNot())
				return nil
			}
			return err
		}
		fmt.Fprintf(w, "Input spec\n------------------\n%s\n\n", expr)
		fmt.Fprintf(w, "Concretized (%d packages, hash %s)\n------------------\n%s",
			concrete.Size(), concrete.DAGHash(), concrete.TreeString())
		return nil
	}
}

func cmdInstall(w io.Writer, s *core.Spack, args []string) error {
	for _, expr := range args {
		res, err := s.Install(expr)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "==> %s: %d packages, virtual wall time %v (serial %v)\n",
			expr, len(res.Reports), res.WallTime.Round(1e6), res.TotalTime.Round(1e6))
		for _, n := range res.Root.TopoOrder() {
			rep := res.Report(n.Name)
			status := "built"
			if rep.FromCache {
				status = "cached"
			} else if rep.Reused {
				status = "reused"
			} else if n.External {
				status = "external"
			}
			fmt.Fprintf(w, "    %-8s %-14s %s\n", status, n.Name, rep.Prefix)
		}
		if res.CacheHits+res.CacheMisses+res.CacheFallbacks > 0 {
			fmt.Fprintf(w, "    buildcache: %d hits, %d misses, %d fallbacks\n",
				res.CacheHits, res.CacheMisses, res.CacheFallbacks)
		}
	}
	return nil
}

func cmdFind(w io.Writer, s *core.Spack, args []string) error {
	query := ""
	if len(args) > 0 {
		query = args[0]
	}
	var recs []*store.Record
	var err error
	if query == "" {
		recs = s.Store.Select(nil)
	} else {
		recs, err = s.Find(query)
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "==> %d installed packages\n", len(recs))
	for _, r := range recs {
		fmt.Fprintf(w, "    %s\n        %s\n", r.Spec.String(), r.Prefix)
		// Spliced installs carry their provenance: the hash they were
		// rewired from and the full splice chain, oldest first.
		if store.RecordOrigin(r) == store.OriginSpliced {
			fmt.Fprintf(w, "        origin: spliced from %s", short(r.SplicedFrom))
			if len(r.Lineage) > 1 {
				fmt.Fprintf(w, " (lineage:")
				for _, h := range r.Lineage {
					fmt.Fprintf(w, " %s", short(h))
				}
				fmt.Fprintf(w, ")")
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// short abbreviates a full hash for display.
func short(h string) string {
	if len(h) > 8 {
		return h[:8]
	}
	return h
}

// cmdSplice rewires an installed root onto an already-installed
// replacement dependency without rebuilding — the cone of packages
// between them is re-materialized from cached archives (or installed
// prefixes) with every store path rewritten, in one transaction.
func cmdSplice(fs *flag.FlagSet) runFunc {
	dryRun := fs.Bool("dry-run", false, "print the plan without touching anything")
	replace := fs.String("replace", "", "dependency name to replace (default: the replacement's package name)")
	return func(w io.Writer, s *core.Spack, args []string) error {
		res, err := s.Splice(args[0], *replace, args[1], *dryRun)
		if err != nil {
			return err
		}
		p := res.Plan
		verb := "splicing"
		if *dryRun {
			verb = "would splice"
		}
		fmt.Fprintf(w, "==> %s %s: %s -> %s\n", verb, p.OldRoot.Name, p.Target, p.Replacement)
		fmt.Fprintf(w, "    root %s -> %s\n", short(p.OldRootHash), short(p.NewRootHash))
		for _, ch := range p.Cone {
			src := "prefix"
			if ch.FromArchive {
				src = "archive"
			}
			fmt.Fprintf(w, "    %-14s %s -> %s  (from %s)\n", ch.Name, short(ch.OldHash), short(ch.NewHash), src)
		}
		for _, path := range p.Envs {
			fmt.Fprintf(w, "    retargets lockfile %s\n", path)
		}
		if *dryRun {
			return nil
		}
		fmt.Fprintf(w, "==> spliced %d packages (%d from archive, %d from prefix, %d reused) in %v\n",
			res.Installed, res.FromArchive, res.FromPrefix, res.Reused, res.Time)
		fmt.Fprintf(w, "    %d module files, %d lockfiles updated\n", res.ModuleFiles, res.Envs)
		for _, warn := range res.Warnings {
			fmt.Fprintf(w, "    warning: %s\n", warn)
		}
		return nil
	}
}

func cmdUninstall(w io.Writer, s *core.Spack, args []string) error {
	return s.Uninstall(args[0], false)
}

func cmdProviders(w io.Writer, s *core.Spack, args []string) error {
	expr := args[0]
	names, err := s.Providers(expr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s:\n", expr)
	for _, n := range names {
		fmt.Fprintf(w, "    %s\n", n)
	}
	return nil
}

func cmdList(w io.Writer, s *core.Spack, args []string) error {
	sub := ""
	if len(args) > 0 {
		sub = args[0]
	}
	names := s.Repos.Names()
	n := 0
	for _, name := range names {
		if sub == "" || strings.Contains(name, sub) {
			fmt.Fprintln(w, name)
			n++
		}
	}
	fmt.Fprintf(w, "==> %d packages\n", n)
	return nil
}

func cmdInfo(w io.Writer, s *core.Spack, args []string) error {
	name := args[0]
	def, ns, ok := s.Repos.Get(name)
	if !ok {
		return fmt.Errorf("unknown package %q", name)
	}
	fmt.Fprintf(w, "Package:     %s (namespace %s)\n", def.Name, ns)
	fmt.Fprintf(w, "Description: %s\n", def.Description)
	if def.Homepage != "" {
		fmt.Fprintf(w, "Homepage:    %s\n", def.Homepage)
	}
	fmt.Fprintf(w, "Safe versions:\n")
	for _, vi := range def.VersionInfos {
		fmt.Fprintf(w, "    %-12s %s\n", vi.Version, vi.MD5)
	}
	if len(def.Variants) > 0 {
		fmt.Fprintf(w, "Variants:\n")
		for _, v := range def.Variants {
			fmt.Fprintf(w, "    %-12s default %-5v %s\n", v.Name, v.Default, v.Description)
		}
	}
	if len(def.Dependencies) > 0 {
		fmt.Fprintf(w, "Dependencies:\n")
		for _, d := range def.Dependencies {
			when := ""
			if d.When != nil {
				when = "  when=" + d.When.String()
			}
			fmt.Fprintf(w, "    %s%s\n", d.Constraint, when)
		}
	}
	if len(def.Provides) > 0 {
		fmt.Fprintf(w, "Provides:\n")
		for _, p := range def.Provides {
			when := ""
			if p.When != nil {
				when = "  when=" + p.When.String()
			}
			fmt.Fprintf(w, "    %s%s\n", p.Virtual, when)
		}
	}
	return nil
}

func cmdCompilers(w io.Writer, s *core.Spack, _ []string) error {
	fmt.Fprintln(w, "==> Available compilers")
	for _, tc := range s.Compilers.All() {
		targets := strings.Join(tc.Targets, ",")
		if targets == "" {
			targets = "host"
		}
		fmt.Fprintf(w, "    %-16s cc=%-28s targets=%s\n", tc.String(), tc.CC, targets)
	}
	return nil
}

func cmdActivate(w io.Writer, s *core.Spack, args []string) error {
	if err := s.Activate(args[0]); err != nil {
		return err
	}
	fmt.Fprintf(w, "==> activated %s\n", args[0])
	return nil
}

func cmdDeactivate(w io.Writer, s *core.Spack, args []string) error {
	if err := s.Deactivate(args[0]); err != nil {
		return err
	}
	fmt.Fprintf(w, "==> deactivated %s\n", args[0])
	return nil
}

func cmdView(w io.Writer, s *core.Spack, args []string) error {
	rule, specs := args[0], args[1:]
	if err := s.Config.Site.AddLinkRule("", rule); err != nil {
		return err
	}
	for _, expr := range specs {
		if _, err := s.Install(expr); err != nil {
			return err
		}
	}
	links, err := s.Views.Refresh(s.Store)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "==> %d view links\n", len(links))
	for _, l := range links {
		fmt.Fprintf(w, "    %s -> %s\n", l.Path, l.Target)
	}
	return nil
}

func cmdGraph(w io.Writer, s *core.Spack, args []string) error {
	expr := args[0]
	concrete, err := s.Spec(expr)
	if err != nil {
		return err
	}
	fmt.Fprint(w, concrete.DotString(nil))
	return nil
}

func cmdVersions(w io.Writer, s *core.Spack, args []string) error {
	name := args[0]
	def, _, ok := s.Repos.Get(name)
	if !ok {
		return fmt.Errorf("unknown package %q", name)
	}
	fmt.Fprintln(w, "==> Safe versions (already checksummed):")
	for _, v := range def.KnownVersions() {
		fmt.Fprintf(w, "    %s\n", v)
	}
	newer := s.Mirror.Scrape(name, def.KnownVersions())
	if len(newer) > 0 {
		fmt.Fprintln(w, "==> Remote versions (not yet checksummed):")
		for _, v := range newer {
			fmt.Fprintf(w, "    %s\n", v)
		}
	}
	return nil
}

func cmdChecksum(w io.Writer, s *core.Spack, args []string) error {
	name := args[0]
	added, err := s.ChecksumNewVersions(name)
	if err != nil {
		return err
	}
	if len(added) == 0 {
		fmt.Fprintf(w, "==> no new versions of %s on the mirror\n", name)
		return nil
	}
	def, _, _ := s.Repos.Get(name)
	fmt.Fprintf(w, "==> added %d new version directives to %s:\n", len(added), name)
	for _, v := range added {
		vi, _ := def.VersionInfo(v)
		fmt.Fprintf(w, "    version('%s', '%s')\n", v, vi.MD5)
	}
	return nil
}

func cmdDiff(w io.Writer, s *core.Spack, args []string) error {
	diffs, err := s.Diff(args[0], args[1])
	if err != nil {
		return err
	}
	if len(diffs) == 0 {
		fmt.Fprintln(w, "==> configurations are identical")
		return nil
	}
	fmt.Fprintf(w, "==> %d packages differ (A = %s, B = %s)\n", len(diffs), args[0], args[1])
	for _, d := range diffs {
		switch d.OnlyIn {
		case "a":
			fmt.Fprintf(w, "    %-14s only in A\n", d.Name)
		case "b":
			fmt.Fprintf(w, "    %-14s only in B\n", d.Name)
		default:
			fmt.Fprintf(w, "    %s:\n", d.Name)
			for _, f := range d.Fields {
				fmt.Fprintf(w, "        %-12s A=%s  B=%s\n", f.Field, f.A, f.B)
			}
		}
	}
	return nil
}

func cmdLmod(w io.Writer, s *core.Spack, args []string) error {
	for _, expr := range args {
		if _, err := s.Install(expr); err != nil {
			return err
		}
	}
	g := &modules.Generator{FS: s.FS, Root: "/spack/share", Kind: modules.KindLmod, IsMPI: s.IsMPI}
	paths, err := g.GenerateAll(s.Store)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "==> generated %d Lmod modules\n", len(paths))
	for _, p := range paths {
		fmt.Fprintf(w, "    %s\n", p)
	}
	return nil
}

func cmdGC(fs *flag.FlagSet) runFunc {
	dryRun := fs.Bool("dry-run", false, "report what a sweep would reclaim without deleting anything")
	return func(w io.Writer, s *core.Spack, _ []string) error {
		res, err := s.GC().Run(*dryRun)
		if err != nil {
			return err
		}
		p := res.Plan
		verb := "reclaimed"
		if *dryRun {
			verb = "would reclaim"
		}
		fmt.Fprintf(w, "==> gc: %d roots anchor %d live installs; %s %d installs (%dB)\n",
			p.Roots, len(p.Live), verb, len(p.Dead), p.DeadBytes)
		for _, d := range p.Dead {
			extras := ""
			if d.Module != "" {
				extras += " +module"
			}
			if d.Archive {
				extras += " +archive"
			}
			fmt.Fprintf(w, "    %-40s %8dB  %s%s\n", d.Spec, d.Bytes, d.Prefix, extras)
		}
		if !*dryRun {
			fmt.Fprintf(w, "==> removed %d records, %d module files, %d archives\n",
				res.Records, res.ModuleFiles, res.Archives)
		}
		return nil
	}
}

// parseSize parses a byte count with an optional K/M/G suffix (powers of
// 1024), e.g. "512K", "100M", "2G", or plain bytes.
func parseSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad size %q (want e.g. 1048576, 512K, 100M, 2G)", s)
	}
	return n * mult, nil
}

func cmdBuildcachePush(w io.Writer, s *core.Spack, args []string) error {
	for _, expr := range args {
		res, err := s.Install(expr)
		if err != nil {
			return err
		}
		entries, err := s.BuildCache.PushDAG(s.Store, res.Root)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "==> pushed %d archives for %s\n", len(entries), expr)
		for _, e := range entries {
			fmt.Fprintf(w, "    %-14s @%-8s %s  sha256=%s (%d files)\n",
				e.Package, e.Version, short(e.FullHash), short(e.Checksum), e.Files)
		}
	}
	return nil
}

func cmdBuildcachePull(w io.Writer, s *core.Spack, args []string) error {
	for _, expr := range args {
		concrete, err := s.Spec(expr)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "==> pulling %s (%d packages)\n", expr, concrete.Size())
		for _, n := range concrete.TopoOrder() {
			if n.External {
				fmt.Fprintf(w, "    external %-14s %s\n", n.Name, n.Path)
				continue
			}
			pr, err := s.BuildCache.Pull(s.Store, n, n == concrete)
			if err != nil {
				return err
			}
			status := "pulled"
			if !pr.Ran {
				status = "present"
			}
			fmt.Fprintf(w, "    %-8s %-14s %s\n", status, n.Name, pr.Record.Prefix)
		}
	}
	return nil
}

func cmdBuildcacheList(w io.Writer, s *core.Spack, _ []string) error {
	entries, err := s.BuildCache.List()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "==> %d cached archives\n", len(entries))
	for _, e := range entries {
		sig := "unsigned"
		switch {
		case e.Signed && e.Trusted:
			sig = "signed:" + e.SignedBy + " (trusted)"
		case e.Signed:
			sig = "signed:" + e.SignedBy
		}
		fmt.Fprintf(w, "    %-14s @%-8s %s (%d files)  %s\n",
			e.Package, e.Version, short(e.FullHash), e.Files, sig)
		if e.Origin != "" {
			fmt.Fprintf(w, "        origin: %s\n", e.Origin)
		}
		if e.SplicedFrom != "" {
			fmt.Fprintf(w, "        spliced from %s (lineage %d deep)\n",
				short(e.SplicedFrom), len(e.Lineage))
		}
	}
	return nil
}

func cmdBuildcachePrune(fs *flag.FlagSet) runFunc {
	maxSize := fs.String("max-size", "", "size budget (bytes, or with K/M/G suffix)")
	maxAge := fs.Duration("max-age", 0, "evict archives last accessed longer ago than this")
	dryRun := fs.Bool("dry-run", false, "report the eviction set without deleting anything")
	return func(w io.Writer, s *core.Spack, _ []string) error {
		var maxBytes int64
		if *maxSize != "" {
			var err error
			if maxBytes, err = parseSize(*maxSize); err != nil {
				return err
			}
		}
		res, err := lifecycle.Prune(s.BuildCache, s.Store, lifecycle.PruneOptions{
			MaxBytes: maxBytes, MaxAge: *maxAge, DryRun: *dryRun,
		})
		if err != nil {
			return err
		}
		verb := "evicted"
		if *dryRun {
			verb = "would evict"
		}
		fmt.Fprintf(w, "==> prune: %d archives (%dB total); %s %d (%dB)\n",
			res.Examined, res.TotalBytes, verb, len(res.Evicted), res.Reclaimed)
		for _, u := range res.Evicted {
			fmt.Fprintf(w, "    %s  %8dB\n", short(u.FullHash), u.Bytes)
		}
		return nil
	}
}

// cmdKeysChecksums is bare `buildcache keys`, which keeps the historical
// behaviour of printing archive checksums; its subcommands drive the
// signing-key registry.
func cmdKeysChecksums(w io.Writer, s *core.Spack, _ []string) error {
	keys, err := s.BuildCache.Keys()
	if err != nil {
		return err
	}
	hashes := make([]string, 0, len(keys))
	for h := range keys {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	fmt.Fprintf(w, "==> %d archive checksums\n", len(hashes))
	for _, h := range hashes {
		fmt.Fprintf(w, "    %s  sha256=%s\n", short(h), keys[h])
	}
	return nil
}

func cmdKeysGenerate(w io.Writer, s *core.Spack, args []string) error {
	pub, err := s.Keyring.Generate(args[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "==> generated trusted signing key %q\n    public: %x\n", args[0], pub)
	return nil
}

func cmdKeysAdd(w io.Writer, s *core.Spack, args []string) error {
	pub, err := hex.DecodeString(args[1])
	if err != nil {
		return fmt.Errorf("bad public key hex: %w", err)
	}
	if err := s.Keyring.Add(args[0], pub); err != nil {
		return err
	}
	fmt.Fprintf(w, "==> added key %q (untrusted; run `buildcache keys trust %s` to trust it)\n",
		args[0], args[0])
	return nil
}

func cmdKeysTrust(w io.Writer, s *core.Spack, args []string) error {
	if err := s.Keyring.Trust(args[0]); err != nil {
		return err
	}
	fmt.Fprintf(w, "==> key %q is now trusted\n", args[0])
	return nil
}

func cmdKeysList(w io.Writer, s *core.Spack, _ []string) error {
	keys := s.Keyring.List()
	fmt.Fprintf(w, "==> %d registered keys (policy: %s)\n", len(keys), policyName(s.Keyring.Policy()))
	for _, k := range keys {
		trust := "untrusted"
		if k.Trusted {
			trust = "trusted"
		}
		fmt.Fprintf(w, "    %-16s %-10s %x\n", k.Name, trust, k.Public)
	}
	return nil
}

func cmdKeysPolicy(w io.Writer, s *core.Spack, args []string) error {
	if len(args) == 0 {
		fmt.Fprintf(w, "==> trust policy: %s\n", policyName(s.Keyring.Policy()))
		return nil
	}
	p, err := buildcache.ParseTrustPolicy(args[0])
	if err != nil {
		return err
	}
	if err := s.Keyring.SetPolicy(p); err != nil {
		return err
	}
	fmt.Fprintf(w, "==> trust policy set to %s\n", policyName(p))
	return nil
}

// cmdKeysFetch imports a serve daemon's public signing keys into this
// machine's registry, so pulls from that daemon verify without copying
// hex key material out of band. Imported keys stay untrusted unless
// -trust is given; keys already registered are left untouched.
func cmdKeysFetch(fs *flag.FlagSet) runFunc {
	trust := fs.Bool("trust", false, "mark the fetched keys trusted")
	return func(w io.Writer, s *core.Spack, args []string) error {
		url := args[0]
		keys, err := service.NewClient(url).Keys()
		if err != nil {
			return err
		}
		known := make(map[string]bool)
		for _, k := range s.Keyring.List() {
			known[k.Name] = true
		}
		added, trusted, skipped := 0, 0, 0
		for _, k := range keys {
			if known[k.Name] {
				skipped++
				fmt.Fprintf(w, "    %-16s already registered, skipped\n", k.Name)
				continue
			}
			pub, err := hex.DecodeString(k.Public)
			if err != nil {
				return fmt.Errorf("key %q: bad public key hex: %w", k.Name, err)
			}
			if err := s.Keyring.Add(k.Name, pub); err != nil {
				return err
			}
			added++
			status := "untrusted"
			if *trust {
				if err := s.Keyring.Trust(k.Name); err != nil {
					return err
				}
				trusted++
				status = "trusted"
			}
			fmt.Fprintf(w, "    %-16s %-10s %s\n", k.Name, status, k.Public)
		}
		fmt.Fprintf(w, "==> fetched %d keys from %s: %d added (%d trusted), %d skipped\n",
			len(keys), url, added, trusted, skipped)
		if added > trusted && trusted == 0 {
			fmt.Fprintf(w, "    run `buildcache keys trust <name>` to trust them\n")
		}
		return nil
	}
}

func policyName(p buildcache.TrustPolicy) string {
	if p == buildcache.TrustOff {
		return "off"
	}
	return string(p)
}

func cmdTable1(w io.Writer, s *core.Spack, args []string) error {
	expr := args[0]
	concrete, err := s.Spec(expr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Software organization of various HPC sites (Table 1) for %s:\n", expr)
	for _, site := range []struct {
		name   string
		layout store.Layout
	}{
		{"LLNL", store.LLNLLayout{}}, {"ORNL", store.ORNLLayout{}},
		{"Spack default", store.SpackLayout{}}, {"TACC / Lmod", store.TACCLayout{IsMPI: s.IsMPI}},
	} {
		fmt.Fprintf(w, "    %-14s /%s\n", site.name, site.layout.RelPath(concrete))
	}
	return nil
}
