package spec_test

import (
	"testing"

	"repro/internal/spec"
	"repro/internal/syntax"
)

// algebraSeeds are spec strings from the syntax table tests (Table 2, the
// anonymous when= predicates, the round-trip corpus) plus pairs that hit
// each path of the spec algebra.
var algebraSeeds = []string{
	"mpileaks",
	"mpileaks@1.1.2",
	"mpileaks@1.1.2 %gcc",
	"mpileaks@1.1.2 %intel@14.1 +debug",
	"mpileaks@1.1.2 =bgq",
	"mpileaks@1.1.2 ^mvapich2@1.9",
	"mpileaks @1.2:1.4 %gcc@4.7.5 -debug =bgq ^callpath @1.1 %gcc@4.7.2 ^openmpi @1.4.7",
	"%gcc@:4",
	"+mpi",
	"=bgq%xl",
	"a@1.2,2.0:3.0 ^b~shared+static ^c=linux-ppc64",
	"mpileaks@2.3%gcc@4.9.2+debug=linux-x86_64 ^callpath@1.1%gcc@4.9.2=linux-x86_64",
	"callpath@1.0",
	"hdf5",
	"mpich ^hwloc",
}

// FuzzSpecAlgebra parses two spec strings and checks that Satisfies,
// ConstrainChanged and Compatible agree with their full-index oracles in
// both directions.
func FuzzSpecAlgebra(f *testing.F) {
	for i, a := range algebraSeeds {
		f.Add(a, algebraSeeds[(i+1)%len(algebraSeeds)])
		f.Add(a, a)
	}
	f.Add("hdf5", "mpich ^hwloc")
	f.Add("mpileaks ^callpath@1.1", "callpath@1.0")
	f.Add("mpileaks@1.1.2 %gcc ^mpich", "%gcc@:4 ^mpich@3:")
	f.Fuzz(func(t *testing.T, a, b string) {
		s, err := syntax.Parse(a)
		if err != nil {
			return
		}
		o, err := syntax.Parse(b)
		if err != nil {
			return
		}
		for _, pair := range [][2]*spec.Spec{{s, o}, {o, s}} {
			if diffs := spec.CheckAgainstOracles(pair[0], pair[1]); len(diffs) > 0 {
				t.Fatalf("s=%q o=%q: %v", pair[0], pair[1], diffs)
			}
		}
	})
}
