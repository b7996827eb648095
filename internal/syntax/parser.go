package syntax

import (
	"repro/internal/spec"
	"repro/internal/version"
)

// Parse converts a spec expression into an abstract Spec DAG. Dependency
// clauses introduced by '^' attach to the root in arbitrary order, matched
// by name (§3.2.3: "dependency constraints can appear in an arbitrary
// order"); a repeated name intersects constraints and reports conflicts.
func Parse(input string) (*spec.Spec, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{input: input, toks: toks}
	root, err := p.parseNode(true)
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokCaret {
		p.next()
		pos := p.peek().pos
		dep, err := p.parseNode(false)
		if err != nil {
			return nil, err
		}
		if dep.Name == "" {
			return nil, &SyntaxError{Input: input, Pos: p.peek().pos, Msg: "dependency after '^' must be named"}
		}
		if dep.Name == root.Name {
			return nil, &SyntaxError{Input: input, Pos: pos, Msg: "a spec cannot depend on itself (^" + dep.Name + ")"}
		}
		if err := root.AddDep(dep); err != nil {
			return nil, err
		}
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, &SyntaxError{Input: input, Pos: t.pos, Msg: "unexpected " + t.kind.String()}
	}
	if root.Name == "" && len(root.Variants) == 0 && root.Versions.IsAny() &&
		root.Compiler.IsZero() && root.Arch == "" && len(root.DirectDeps()) == 0 {
		return nil, &SyntaxError{Input: input, Pos: 0, Msg: "empty spec"}
	}
	return root, nil
}

// MustParse is Parse for tests and literals; it panics on error.
func MustParse(input string) *spec.Spec {
	s, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return s
}

type parser struct {
	input string
	toks  []token
	pos   int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(msg string) error {
	return &SyntaxError{Input: p.input, Pos: p.peek().pos, Msg: msg}
}

// parseNode parses `[id] constraints` — one node's worth of the grammar.
// allowAnonymous permits the leading id to be absent (root position only;
// '^' clauses must name their package).
func (p *parser) parseNode(allowAnonymous bool) (*spec.Spec, error) {
	s := spec.New("")
	if p.peek().kind == tokID {
		s.Name = p.next().text
	} else if !allowAnonymous && p.peek().kind != tokEOF {
		return nil, p.errf("expected package name, got " + p.peek().kind.String())
	}
	for {
		switch p.peek().kind {
		case tokAt:
			p.next()
			vl, err := p.parseVersionList()
			if err != nil {
				return nil, err
			}
			merged, ok := s.Versions.Intersect(vl)
			if !ok {
				return nil, p.errf("conflicting version constraints on " + s.Name)
			}
			s.Versions = merged
		case tokPlus:
			p.next()
			name, err := p.expectID("variant name after '+'")
			if err != nil {
				return nil, err
			}
			if err := p.setVariant(s, name, true); err != nil {
				return nil, err
			}
		case tokMinus, tokTilde:
			p.next()
			name, err := p.expectID("variant name after '-'/'~'")
			if err != nil {
				return nil, err
			}
			if err := p.setVariant(s, name, false); err != nil {
				return nil, err
			}
		case tokPercent:
			p.next()
			name, err := p.expectID("compiler name after '%'")
			if err != nil {
				return nil, err
			}
			c := spec.Compiler{Name: name}
			if p.peek().kind == tokAt {
				p.next()
				vl, err := p.parseVersionList()
				if err != nil {
					return nil, err
				}
				c.Versions = vl
			}
			merged, err := s.Compiler.Intersect(c)
			if err != nil {
				return nil, err
			}
			s.Compiler = merged
		case tokEquals:
			p.next()
			arch, err := p.expectID("architecture after '='")
			if err != nil {
				return nil, err
			}
			if s.Arch != "" && s.Arch != arch {
				return nil, p.errf("conflicting architectures " + s.Arch + " and " + arch)
			}
			s.Arch = arch
		default:
			return s, nil
		}
	}
}

func (p *parser) setVariant(s *spec.Spec, name string, on bool) error {
	if cur, ok := s.Variant(name); ok && cur != on {
		return p.errf("conflicting settings for variant " + name)
	}
	s.SetVariant(name, on)
	return nil
}

func (p *parser) expectID(what string) (string, error) {
	if p.peek().kind != tokID {
		return "", p.errf("expected " + what + ", got " + p.peek().kind.String())
	}
	return p.next().text, nil
}

// parseVersionList parses `version {',' version}` where each version is
// `id | id ':' | ':' id | id ':' id`.
func (p *parser) parseVersionList() (version.List, error) {
	var list version.List
	first := true
	for {
		r, err := p.parseVersionRange()
		if err != nil {
			if first {
				return version.List{}, err
			}
			return version.List{}, err
		}
		list = list.Add(r)
		first = false
		if p.peek().kind != tokComma {
			return list, nil
		}
		p.next()
	}
}

func (p *parser) parseVersionRange() (version.Range, error) {
	var lo, hi version.Version
	haveLo := false
	if p.peek().kind == tokID {
		lo = version.Parse(p.next().text)
		haveLo = true
	}
	if p.peek().kind == tokColon {
		p.next()
		if p.peek().kind == tokID {
			hi = version.Parse(p.next().text)
		}
		return version.Range{Lo: lo, Hi: hi}, nil
	}
	if !haveLo {
		return version.Range{}, p.errf("expected version after '@'")
	}
	return version.SingleRange(lo), nil
}
