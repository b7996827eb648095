// Package ares defines the ARES multi-physics software stack of SC'15
// §4.4: the 47-package dependency DAG of Fig. 13 — ARES itself, 11 LLNL
// physics packages, 4 math/meshing libraries, 8 utility libraries, and 23
// external packages — and the nightly test matrix of Table 3 (four code
// configurations across architecture-compiler-MPI combinations). The LLNL
// packages live in their own "llnl.ares" repository namespace, modeling
// §4.3.2's site-specific repositories; the external packages come from the
// builtin repository.
package ares

import (
	"repro/internal/fetch"
	"repro/internal/pkg"
	"repro/internal/repo"
	"repro/internal/spec"
	"repro/internal/syntax"
	"repro/internal/version"
)

// PackageType classifies the Fig. 13 nodes.
type PackageType int

const (
	// TypePhysics marks LLNL physics packages (red in Fig. 13).
	TypePhysics PackageType = iota
	// TypeMath marks LLNL math/meshing libraries.
	TypeMath
	// TypeUtility marks LLNL utility libraries.
	TypeUtility
	// TypeExternal marks open-source external packages.
	TypeExternal
	// TypeCode marks ARES itself.
	TypeCode
)

func (t PackageType) String() string {
	switch t {
	case TypePhysics:
		return "physics"
	case TypeMath:
		return "math"
	case TypeUtility:
		return "utility"
	case TypeExternal:
		return "external"
	case TypeCode:
		return "code"
	}
	return "unknown"
}

// Classification maps every package that can appear in the ARES DAG to its
// Fig. 13 category. MPI/BLAS/LAPACK providers count as external.
var Classification = map[string]PackageType{
	"ares": TypeCode,
	// 11 physics packages.
	"matprop": TypePhysics, "leos": TypePhysics, "mslib": TypePhysics,
	"laser": TypePhysics, "cretin": TypePhysics, "tdf": TypePhysics,
	"cheetah": TypePhysics, "dsd": TypePhysics, "teton": TypePhysics,
	"nuclear": TypePhysics, "asclaser": TypePhysics,
	// 4 math/meshing libraries.
	"overlink": TypeMath, "qd": TypeMath, "samrai": TypeMath, "hypre": TypeMath,
	// 8 utility libraries.
	"bdivxml": TypeUtility, "sgeos-xml": TypeUtility, "scallop": TypeUtility,
	"rng": TypeUtility, "perflib": TypeUtility, "memusage": TypeUtility,
	"timers": TypeUtility, "opclient": TypeUtility,
	// External packages (including virtual-interface providers).
	"tcl": TypeExternal, "tk": TypeExternal, "py-scipy": TypeExternal,
	"py-numpy": TypeExternal, "python": TypeExternal, "cmake": TypeExternal,
	"hpdf": TypeExternal, "boost": TypeExternal, "zlib": TypeExternal,
	"bzip2": TypeExternal, "gsl": TypeExternal, "hdf5": TypeExternal,
	"gperftools": TypeExternal, "papi": TypeExternal, "ga": TypeExternal,
	"silo": TypeExternal, "ncurses": TypeExternal, "sqlite": TypeExternal,
	"readline": TypeExternal, "openssl": TypeExternal,
	"mpich": TypeExternal, "mvapich": TypeExternal, "mvapich2": TypeExternal,
	"openmpi": TypeExternal, "bgq-mpi": TypeExternal, "cray-mpi": TypeExternal,
	"atlas": TypeExternal, "netlib-blas": TypeExternal, "mkl": TypeExternal,
	"netlib-lapack": TypeExternal, "hwloc": TypeExternal,
	"py-setuptools": TypeExternal,
}

func addVersions(p *pkg.Package, versions ...string) *pkg.Package {
	for _, v := range versions {
		p.WithVersion(v, fetch.Checksum(p.Name, version.MustParse(v)))
	}
	return p
}

// Repo builds the llnl.ares site repository containing ARES and the LLNL
// physics/math/utility packages.
func Repo() *repo.Repo {
	r := repo.NewRepo("llnl.ares")

	llnlLib := func(name, desc string, units int, deps ...string) *pkg.Package {
		p := pkg.New(name).Describe(desc).WithBuild("autotools", units)
		for _, d := range deps {
			p.DependsOn(d)
		}
		addVersions(p, "1.0", "2.0")
		r.MustAdd(p)
		return p
	}

	// Utility libraries (logging, I/O, performance measurement).
	llnlLib("bdivxml", "LLNL XML utility library.", 6)
	llnlLib("sgeos-xml", "Geometry XML schema library.", 6, "bdivxml")
	llnlLib("scallop", "Scalable I/O utility library.", 10, "mpi")
	llnlLib("rng", "Parallel random number generators.", 5)
	llnlLib("perflib", "Performance measurement library.", 8, "papi")
	llnlLib("memusage", "Memory usage tracking library.", 4)
	llnlLib("timers", "Hierarchical timer library.", 4)
	llnlLib("opclient", "Operations database client.", 7)

	// Math/meshing: overlink here; qd, samrai, hypre come from builtin.
	llnlLib("overlink", "Overset grid remapping library.", 20, "silo")

	// Physics packages.
	llnlLib("matprop", "Material properties database.", 15, "sgeos-xml")
	llnlLib("leos", "Equation-of-state library (LEOS).", 25, "hdf5", "matprop")
	llnlLib("mslib", "Material strength library.", 12, "matprop")
	llnlLib("laser", "Laser ray-trace physics.", 18, "mpi", "rng")
	llnlLib("cretin", "Atomic kinetics / NLTE physics.", 30, "mpi", "hdf5")
	llnlLib("tdf", "Thermonuclear data functions.", 8)
	llnlLib("cheetah", "Thermochemical equilibrium code.", 22, "gsl")
	llnlLib("dsd", "Detonation shock dynamics.", 14, "qd")
	llnlLib("teton", "Deterministic radiation transport (Teton).", 35, "mpi", "hypre")
	llnlLib("nuclear", "Nuclear reaction data library.", 10, "tdf")
	llnlLib("asclaser", "ASC laser package.", 16, "laser")

	// ARES itself: four code configurations (Table 3) — current (15.07),
	// previous (14.11), development (develop), and the "lite" variant with
	// a smaller feature and dependency set.
	ares := pkg.New("ares").
		Describe("LLNL 1/2/3-D radiation hydrodynamics code (ARES).").
		WithVariant("lite", false, "Build the reduced feature set").
		WithBuild("cmake", 400).
		// Physics.
		DependsOn("matprop").
		DependsOn("leos").
		DependsOn("mslib").
		DependsOn("tdf").
		DependsOn("cheetah").
		DependsOn("dsd").
		DependsOn("teton").
		DependsOn("nuclear").
		DependsOn("laser", pkg.When("~lite")).
		DependsOn("cretin", pkg.When("~lite")).
		DependsOn("asclaser", pkg.When("~lite")).
		// Math/meshing.
		DependsOn("overlink").
		DependsOn("qd").
		DependsOn("samrai").
		DependsOn("hypre").
		// Utilities.
		DependsOn("bdivxml").
		DependsOn("sgeos-xml").
		DependsOn("scallop").
		DependsOn("rng").
		DependsOn("perflib").
		DependsOn("memusage").
		DependsOn("timers").
		DependsOn("opclient").
		// Externals. ARES builds its own Python (§4.4), except in lite.
		DependsOn("silo").
		DependsOn("hdf5").
		DependsOn("gperftools").
		DependsOn("papi").
		DependsOn("ga").
		DependsOn("hpdf").
		DependsOn("boost").
		DependsOn("gsl").
		DependsOn("cmake", pkg.BuildOnly()).
		DependsOn("mpi").
		DependsOn("blas").
		DependsOn("lapack").
		DependsOn("python@2.7.9", pkg.When("~lite")).
		DependsOn("py-scipy", pkg.When("~lite")).
		DependsOn("py-numpy", pkg.When("~lite")).
		DependsOn("tcl", pkg.When("~lite")).
		DependsOn("tk", pkg.When("~lite")).
		// The development line tracks a newer gperftools.
		DependsOn("gperftools@2.4", pkg.When("@develop"))
	addVersions(ares, "14.11", "15.07", "develop")
	r.MustAdd(ares)

	return r
}

// CodeConfig is one of the four ARES configurations of Table 3.
type CodeConfig byte

const (
	// Current production.
	Current CodeConfig = 'C'
	// Previous production.
	Previous CodeConfig = 'P'
	// Lite feature set.
	Lite CodeConfig = 'L'
	// Development version.
	Development CodeConfig = 'D'
)

// Spec returns the abstract spec expression for a configuration.
func (c CodeConfig) Spec() string {
	switch c {
	case Current:
		return "ares@15.07"
	case Previous:
		return "ares@14.11"
	case Lite:
		return "ares@15.07+lite"
	case Development:
		return "ares@develop"
	}
	return "ares"
}

func (c CodeConfig) String() string { return string(c) }

// Cell is one architecture-compiler-MPI combination of Table 3 with the
// configurations tested there.
type Cell struct {
	Arch     string
	Compiler string // spec syntax after %, e.g. "intel@14"
	MPI      string // MPI provider package name
	Configs  []CodeConfig
}

// Matrix returns the nightly-test matrix of Table 3: 36 configurations
// across architecture-compiler-MPI combinations.
func Matrix() []Cell {
	all := []CodeConfig{Current, Previous, Lite, Development}
	return []Cell{
		{Arch: "linux-x86_64", Compiler: "gcc", MPI: "mvapich", Configs: all},
		{Arch: "linux-x86_64", Compiler: "gcc", MPI: "openmpi", Configs: all},
		{Arch: "linux-x86_64", Compiler: "intel@14", MPI: "mvapich", Configs: all},
		{Arch: "linux-x86_64", Compiler: "intel@15", MPI: "mvapich", Configs: all},
		{Arch: "cray-xe6", Compiler: "intel@15", MPI: "cray-mpi", Configs: []CodeConfig{Development}},
		{Arch: "linux-x86_64", Compiler: "pgi", MPI: "mvapich", Configs: []CodeConfig{Development}},
		{Arch: "linux-x86_64", Compiler: "pgi", MPI: "mvapich2", Configs: all},
		{Arch: "cray-xe6", Compiler: "pgi", MPI: "cray-mpi", Configs: []CodeConfig{Current, Lite, Development}},
		{Arch: "linux-x86_64", Compiler: "clang", MPI: "mvapich", Configs: all},
		{Arch: "bgq", Compiler: "clang", MPI: "bgq-mpi", Configs: []CodeConfig{Current, Lite, Development}},
		{Arch: "bgq", Compiler: "xl", MPI: "bgq-mpi", Configs: all},
	}
}

// SpecFor renders the full abstract spec for one cell and configuration:
// code config + compiler + architecture + forced MPI provider.
func SpecFor(c Cell, cfg CodeConfig) string {
	return cfg.Spec() + " %" + c.Compiler + " =" + c.Arch + " ^" + c.MPI
}

// MatrixEntry pairs one matrix configuration with its parsed abstract spec,
// in the deterministic order Matrix enumerates cells.
type MatrixEntry struct {
	Cell     Cell
	Config   CodeConfig
	Abstract *spec.Spec
}

// MatrixEntries expands the Table 3 matrix into its 36 configurations with
// pre-parsed abstract specs — the batch the nightly automation hands to
// concretize.ConcretizeAll so independent configurations solve in parallel
// against one shared memo cache.
func MatrixEntries() []MatrixEntry {
	var out []MatrixEntry
	for _, cell := range Matrix() {
		for _, cfg := range cell.Configs {
			out = append(out, MatrixEntry{
				Cell:     cell,
				Config:   cfg,
				Abstract: syntax.MustParse(SpecFor(cell, cfg)),
			})
		}
	}
	return out
}
