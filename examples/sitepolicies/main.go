// Sitepolicies: the §4.3 use case — site and user configuration shaping
// concretization (compiler order, provider order, preferred versions), a
// site package repository overriding a builtin recipe, and views
// projecting hashed store paths onto human-readable links with
// policy-driven conflict resolution.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/pkg"
	"repro/internal/repo"
	"repro/internal/version"
)

func main() {
	// A site repository that replaces builtin zlib with a patched local
	// variant (§4.3.2: sites "tweak or completely replace Spack's build
	// recipes").
	site := repo.NewRepo("llnl.site")
	zlib := pkg.New("zlib").
		Describe("zlib with LLNL site patches.").
		WithPatch("zlib-llnl-rpath.patch", "").
		WithBuild("autotools", 4)
	zlib.WithVersion("1.2.8", "5ad9e0daf9a34bcc09a203bd57ec6aaa")
	site.MustAdd(zlib)

	s := core.MustNew(core.WithRepos(site))
	s.Mirror.Publish("zlib", version.MustParse("1.2.8"))

	// Site policies (§4.3.1): prefer the Intel compiler, mvapich2 for MPI,
	// and pin python to the 2.7 series.
	if err := s.Config.Site.SetCompilerOrder("intel,gcc@4.9.2"); err != nil {
		log.Fatal(err)
	}
	s.Config.Site.SetProviderOrder("mpi", "mvapich2", "openmpi")
	if err := s.Config.Site.PreferVersion("python", "2.7:2.8"); err != nil {
		log.Fatal(err)
	}

	// View rules render friendly paths.
	s.Config.Site.AddLinkRule("mpileaks", "/opt/${PACKAGE}-${VERSION}-${MPINAME}")
	s.Config.Site.AddLinkRule("mpileaks", "/opt/${PACKAGE}-${MPINAME}")

	// Concretize: policies decide everything the user leaves open.
	concrete, err := s.Spec("mpileaks")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("with site policies, an unconstrained mpileaks concretizes to:")
	fmt.Printf("    compiler: %s (site compiler_order)\n", concrete.Compiler)
	mpi := concrete.Dep("mvapich2")
	if mpi == nil {
		log.Fatal("provider policy not applied")
	}
	mv, _ := mpi.ConcreteVersion()
	fmt.Printf("    MPI:      mvapich2@%s (site provider order)\n", mv)

	// The site zlib recipe wins over builtin.
	z, err := s.Spec("zlib")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("    zlib:     namespace %s (site repo overrides builtin)\n", z.Namespace)

	// A user overrides the site's compiler preference.
	s.Config.User.SetCompilerOrder("gcc@4.7.3")
	userSpec, _ := s.Spec("mpileaks")
	fmt.Printf("    user override -> compiler: %s\n", userSpec.Compiler)
	s.Config.User.SetCompilerOrder("") // back to site policy

	// Install two mpileaks configurations; views resolve the ambiguous
	// /opt/mpileaks-<mpi> link by policy (newest version wins).
	for _, expr := range []string{"mpileaks@1.0 ^mvapich2", "mpileaks@2.3 ^mvapich2"} {
		if _, err := s.Install(expr); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\nview links after installing mpileaks 1.0 and 2.3:")
	for _, l := range s.Views.Links() {
		fmt.Printf("    %s -> %s\n", l.Path, l.Target)
	}

	// Python stays in the preferred 2.7 series despite 3.4.2 existing.
	py, err := s.Spec("python")
	if err != nil {
		log.Fatal(err)
	}
	pv, _ := py.ConcreteVersion()
	fmt.Printf("\npython concretizes to %s (site prefers 2.7:2.8; 3.4.2 exists)\n", pv)
}
