package views

import (
	"strings"
	"testing"

	"repro/internal/spec"
	"repro/internal/syntax"
)

// expandReplacer is the strings.Replacer expansion ExpandTemplate
// replaced; the table test holds the single-pass scan to its output.
func expandReplacer(tmpl string, s *spec.Spec, isMPI func(string) bool) string {
	v, _ := s.ConcreteVersion()
	mpiName, mpiVer := "serial", "none"
	if isMPI != nil {
		s.Traverse(func(n *spec.Spec) bool {
			if n != s && isMPI(n.Name) {
				mpiName = n.Name
				if nv, ok := n.ConcreteVersion(); ok {
					mpiVer = nv.String()
				}
				return false
			}
			return true
		})
	}
	return strings.NewReplacer(
		"${PACKAGE}", s.Name,
		"${VERSION}", v.String(),
		"${COMPILER}", s.Compiler.Name,
		"${COMP_VERSION}", s.Compiler.Versions.String(),
		"${MPINAME}", mpiName,
		"${MPIVERSION}", mpiVer,
		"${ARCH}", s.Arch,
		"${HASH}", s.DAGHash(),
	).Replace(tmpl)
}

func TestExpandTemplateMatchesReplacer(t *testing.T) {
	e := newEnv(t)
	mpileaks := e.install(t, "mpileaks ^mpich")
	libelf := e.install(t, "libelf")
	templates := []string{
		"",
		"/opt/plain",
		"/opt/${PACKAGE}",
		"/opt/${PACKAGE}-${VERSION}-${COMPILER}-${COMP_VERSION}",
		"/opt/${MPINAME}/${MPIVERSION}/${ARCH}/${HASH}",
		"${PACKAGE}${VERSION}${COMPILER}${COMP_VERSION}${MPINAME}${MPIVERSION}${ARCH}${HASH}",
		"/opt/${UNKNOWN}/${PACKAGE}",
		"/opt/${package}/${ PACKAGE}",
		"${${PACKAGE}}",
		"$${PACKAGE}$",
		"/opt/${PACKAGE",
		"/opt/${",
		"${",
		"$",
		"}${}${PACKAGE}}",
		"/opt/${X${VERSION}",
		"/opt/${PACKAGE}/${MPINAME",
	}
	for _, s := range []*spec.Spec{mpileaks, libelf, syntax.MustParse("anon")} {
		for _, isMPI := range []func(string) bool{e.isMPI, nil} {
			for _, tmpl := range templates {
				got := ExpandTemplate(tmpl, s, isMPI)
				want := expandReplacer(tmpl, s, isMPI)
				if got != want {
					t.Errorf("%s, mpi %v: ExpandTemplate(%q) = %q, Replacer gives %q",
						s.Name, isMPI != nil, tmpl, got, want)
				}
			}
		}
	}
	if got := ExpandTemplate("/opt/${MPINAME}-${MPIVERSION}", mpileaks, e.isMPI); got == "/opt/serial-none" {
		t.Errorf("mpileaks ^mpich expanded to %q", got)
	}
}
