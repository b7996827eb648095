package syntax

import (
	"repro/internal/spec"
	"repro/internal/version"
)

// scanNode reads one node string in the canonical concrete shape that
// spec.AppendNode writes, name@v%comp@v+a~b=arch: each part but the name
// optional, every version a single id, and variants in strictly
// ascending name order with '+' or '~'. On that shape it fills n as
// Parse would build the node and returns true; on any other (whitespace,
// ranges, lists, a '-' sigil, unsorted or repeated variants, dependency
// clauses) it returns false and leaves n alone, and the caller parses.
// prev is the compiler the caller scanned last and its text: a DAG's
// nodes mostly share one compiler, so that one's versions are parsed
// once.
func scanNode(n *spec.Spec, s string, prev *scannedCompiler) bool {
	name, i := scanID(s, 0)
	if name == "" {
		return false
	}
	var vers version.List
	if i < len(s) && s[i] == '@' {
		var ok bool
		if vers, i, ok = scanVersion(s, i+1); !ok {
			return false
		}
	}
	var comp spec.Compiler
	if i < len(s) && s[i] == '%' {
		start := i + 1
		var cname string
		if cname, i = scanID(s, start); cname == "" {
			return false
		}
		if i < len(s) && s[i] == '@' {
			// Find the compiler text's end first, to compare it with prev's.
			_, end := scanID(s, i+1)
			if text := s[start:end]; text == prev.text {
				comp, i = prev.c, end
			} else {
				var cvers version.List
				var ok bool
				if cvers, i, ok = scanVersion(s, i+1); !ok {
					return false
				}
				comp = spec.Compiler{Name: cname, Versions: cvers}
				*prev = scannedCompiler{text: text, c: comp}
			}
		} else {
			comp = spec.Compiler{Name: cname}
		}
	}
	var variants map[string]spec.VariantValue
	for last := ""; i < len(s) && (s[i] == '+' || s[i] == '~'); {
		on := s[i] == '+'
		var v string
		if v, i = scanID(s, i+1); v == "" || v <= last {
			return false
		}
		if variants == nil {
			variants = make(map[string]spec.VariantValue)
		}
		variants[v] = spec.VariantValue(on)
		last = v
	}
	var arch string
	if i < len(s) && s[i] == '=' {
		if arch, i = scanID(s, i+1); arch == "" {
			return false
		}
	}
	if i != len(s) {
		return false
	}
	n.Name, n.Versions, n.Compiler, n.Variants, n.Arch = name, vers, comp, variants, arch
	return true
}

// scannedCompiler is the compiler scanNode read last, with its text
// (name@versions).
type scannedCompiler struct {
	text string
	c    spec.Compiler
}

// scanID returns the id (as lex reads one) starting at s[i], or "" when
// none starts there, and the offset after it.
func scanID(s string, i int) (string, int) {
	if i >= len(s) || !isIDStart(s[i]) {
		return "", i
	}
	j := i + 1
	for j < len(s) && isIDChar(s[j]) {
		j++
	}
	return s[i:j], j
}

// scanVersion reads the single version id at s[i] as the exact version
// list Parse builds for it. It fails when there is none, or when a ','
// or ':' follows, which would make it a list or a range.
func scanVersion(s string, i int) (version.List, int, bool) {
	v, j := scanID(s, i)
	if v == "" || j < len(s) && (s[j] == ',' || s[j] == ':') {
		return version.List{}, i, false
	}
	return version.ExactList(version.Parse(v)), j, true
}
