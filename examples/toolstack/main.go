// Toolstack: the LLNL debugging/performance tool chain — STAT and its
// dependency stack (dyninst, launchmon, mrnet, graphlib) — demonstrating
// dependency types (build-only tools stay out of RPATHs), Lmod hierarchy
// generation (§3.5.4's future-work feature), and configuration diffing
// across MPI implementations.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/modules"
)

func main() {
	s := core.MustNew()

	// Build STAT against two MPI implementations — the §4.1 pattern of
	// maintaining tool builds for every MPI a center supports.
	fmt.Println("building stat ^mvapich2 and stat ^openmpi ...")
	a, err := s.Install("stat ^mvapich2")
	if err != nil {
		log.Fatal(err)
	}
	b, err := s.Install("stat ^openmpi")
	if err != nil {
		log.Fatal(err)
	}
	reused := 0
	for _, rep := range b.Reports {
		if rep.Reused {
			reused++
		}
	}
	fmt.Printf("first build: %d packages; second build reused %d of %d\n",
		len(a.Reports), reused, len(b.Reports))

	// Dependency types: launchmon needs autoconf only at build time, so
	// the installed binary carries no RPATH to it.
	lm := a.Root.Dep("launchmon")
	fmt.Printf("\nlaunchmon edges: autoconf=%s libelf=%s\n",
		lm.EdgeType("autoconf"), lm.EdgeType("libelf"))
	rec, _ := s.Store.Lookup(lm)
	binary, err := s.FS.ReadFile(rec.Prefix + "/bin/launchmon")
	if err != nil {
		log.Fatal(err)
	}
	autoconfRec, _ := s.Find("autoconf")
	if strings.Contains(string(binary), autoconfRec[0].Prefix) {
		log.Fatal("build-only dep leaked into RPATH")
	}
	fmt.Println("launchmon binary has RPATHs for libelf but not autoconf (build-only)")

	// Lmod hierarchy: MPI-dependent tools land under the compiler/mpi
	// layers; serial libraries under the compiler layer.
	g := &modules.Generator{FS: s.FS, Root: "/spack/share", Kind: modules.KindLmod, IsMPI: s.IsMPI}
	paths, err := g.GenerateAll(s.Store)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nLmod hierarchy (%d modules):\n", len(paths))
	for _, p := range paths {
		if strings.Contains(p, "/stat/") || strings.Contains(p, "/mrnet/") {
			fmt.Printf("    %s\n", strings.TrimPrefix(p, "/spack/share/lmod/"))
		}
	}

	// Diff the two STAT configurations.
	diffs, err := s.Diff("stat ^mvapich2", "stat ^openmpi")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstat^mvapich2 vs stat^openmpi: %d packages differ:\n", len(diffs))
	for _, d := range diffs {
		switch d.OnlyIn {
		case "a":
			fmt.Printf("    %-12s only with mvapich2\n", d.Name)
		case "b":
			fmt.Printf("    %-12s only with openmpi\n", d.Name)
		default:
			fmt.Printf("    %-12s differs through its dependencies\n", d.Name)
		}
	}
}
