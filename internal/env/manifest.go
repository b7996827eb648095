// Package env implements Spack environments: a spack.yaml-style manifest
// of named abstract specs (plus a view and config overrides) that
// concretizes as one unit, is pinned by a full-hash-keyed lockfile
// (spack.lock), and installs or updates the store through a single
// journaled transaction — the add/remove delta either lands completely or
// not at all. This is the paper's §4 combinatorial-stack workflow turned
// into a first-class, atomically updatable object (the shape Nix pioneered
// for profiles and Spack later shipped as environments).
package env

import (
	"fmt"
	"sort"
	"strings"
)

// View configures the environment's link forest.
type View struct {
	// Path is the view root directory; links land directly under it.
	Path string
	// Projection is the link-name template (views.ExpandTemplate
	// placeholders); default "${PACKAGE}-${VERSION}".
	Projection string
	// Conflict selects whose compiler preference breaks link conflicts
	// when several installs project onto one name: "user" (default, the
	// merged user-then-site order) or "site" (site scope only — the
	// policy a shared team view pins regardless of personal config).
	Conflict string
}

// Manifest mirrors the spack.yaml subset this repo understands:
//
//	spack:
//	  specs:
//	  - mpileaks ^mvapich
//	  - dyninst
//	  view:
//	    path: /spack/envs/dev/view
//	    projection: ${PACKAGE}-${VERSION}
//	    conflict: user
//	  config:
//	    compiler_order: icc,gcc@4.6.1
//	    providers:
//	      mpi: [mvapich, mpich]
type Manifest struct {
	// Specs are the named abstract specs, in manifest order.
	Specs []string
	// View is the optional link-forest projection.
	View *View
	// CompilerOrder overrides the user-scope compiler_order for this
	// environment's concretizations.
	CompilerOrder string
	// Providers overrides virtual-provider preference per virtual name.
	Providers map[string][]string
}

// DefaultProjection is the link template a view without an explicit
// projection uses.
const DefaultProjection = "${PACKAGE}-${VERSION}"

// ConflictPolicy normalizes the view's conflict setting.
func (v *View) ConflictPolicy() string {
	if v == nil || v.Conflict == "" {
		return "user"
	}
	return v.Conflict
}

// ProjectionTemplate returns the effective link template.
func (v *View) ProjectionTemplate() string {
	if v.Projection == "" {
		return DefaultProjection
	}
	return v.Projection
}

// yamlNode is one node of the indentation-parsed spack.yaml subset:
// exactly one of scalar, list, or mapping is populated.
type yamlNode struct {
	scalar  string
	list    []string
	mapping map[string]*yamlNode
	keys    []string // mapping insertion order
}

// isScalar, isList and isMapping report whether the node can be read as
// that shape. A node with nothing (an empty section) is every shape.
func (n *yamlNode) isScalar() bool  { return n.list == nil && n.mapping == nil }
func (n *yamlNode) isList() bool    { return n.scalar == "" && n.mapping == nil }
func (n *yamlNode) isMapping() bool { return n.scalar == "" && n.list == nil }

type yamlLine struct {
	indent int
	text   string
	num    int
}

// parseYAML parses the indentation-structured subset of YAML the manifest
// uses: block mappings (`key:` / `key: value`), block lists of scalars
// (`- item`), and inline lists (`[a, b]`). Anything else is an error —
// environments are hand-edited files, so unknown shapes fail loudly
// rather than deserializing to garbage.
func parseYAML(src string) (*yamlNode, error) {
	var lines []yamlLine
	for i, raw := range strings.Split(src, "\n") {
		text := raw
		if idx := strings.Index(text, "#"); idx >= 0 && !strings.Contains(text[:idx], "${") {
			text = text[:idx]
		}
		trimmed := strings.TrimRight(text, " \t")
		if strings.TrimSpace(trimmed) == "" {
			continue
		}
		body := strings.TrimLeft(trimmed, " \t")
		if strings.Contains(trimmed[:len(trimmed)-len(body)], "\t") {
			return nil, fmt.Errorf("env: line %d: tabs are not allowed for indentation", i+1)
		}
		indent := len(trimmed) - len(body)
		lines = append(lines, yamlLine{indent: indent, text: strings.TrimSpace(trimmed), num: i + 1})
	}
	node, next, err := parseYAMLBlock(lines, 0, 0)
	if err != nil {
		return nil, err
	}
	if next != len(lines) {
		return nil, fmt.Errorf("env: line %d: unexpected outdent", lines[next].num)
	}
	return node, nil
}

// parseYAMLBlock parses one block starting at lines[i], whose members all
// share lines[i].indent, returning the node and the index past the block.
func parseYAMLBlock(lines []yamlLine, i, indent int) (*yamlNode, int, error) {
	if i >= len(lines) {
		return &yamlNode{}, i, nil
	}
	blockIndent := lines[i].indent
	if blockIndent < indent {
		return &yamlNode{}, i, nil
	}
	if strings.HasPrefix(lines[i].text, "- ") || lines[i].text == "-" {
		n := &yamlNode{}
		for i < len(lines) && lines[i].indent == blockIndent && strings.HasPrefix(lines[i].text, "-") {
			item := strings.TrimSpace(strings.TrimPrefix(lines[i].text, "-"))
			if item == "" {
				return nil, i, fmt.Errorf("env: line %d: empty list item", lines[i].num)
			}
			n.list = append(n.list, item)
			i++
		}
		return n, i, nil
	}
	n := &yamlNode{mapping: map[string]*yamlNode{}}
	for i < len(lines) && lines[i].indent == blockIndent {
		text := lines[i].text
		if strings.HasPrefix(text, "- ") {
			return nil, i, fmt.Errorf("env: line %d: list item inside a mapping", lines[i].num)
		}
		colon := strings.Index(text, ":")
		if colon < 0 {
			return nil, i, fmt.Errorf("env: line %d: expected `key:` or `key: value`", lines[i].num)
		}
		key := strings.TrimSpace(text[:colon])
		val := strings.TrimSpace(text[colon+1:])
		if key == "" {
			return nil, i, fmt.Errorf("env: line %d: empty key", lines[i].num)
		}
		if _, dup := n.mapping[key]; dup {
			return nil, i, fmt.Errorf("env: line %d: duplicate key %q", lines[i].num, key)
		}
		var child *yamlNode
		var err error
		if val != "" {
			if strings.HasPrefix(val, "[") && strings.HasSuffix(val, "]") {
				child = &yamlNode{}
				for _, item := range strings.Split(val[1:len(val)-1], ",") {
					if item = strings.TrimSpace(item); item != "" {
						child.list = append(child.list, item)
					}
				}
			} else {
				child = &yamlNode{scalar: val}
			}
			i++
		} else {
			i++
			switch {
			case i < len(lines) && lines[i].indent > blockIndent:
				child, i, err = parseYAMLBlock(lines, i, blockIndent+1)
			case i < len(lines) && lines[i].indent == blockIndent && strings.HasPrefix(lines[i].text, "-"):
				// YAML permits sequence items at the parent key's indent:
				//   specs:
				//   - zlib
				child, i, err = parseYAMLBlock(lines, i, blockIndent)
			default:
				child = &yamlNode{} // empty section
			}
			if err != nil {
				return nil, i, err
			}
		}
		n.mapping[key] = child
		n.keys = append(n.keys, key)
	}
	return n, i, nil
}

// ParseManifest parses spack.yaml content. A section of the wrong shape
// (`specs: zlib`, a list where a setting takes one value) is an error.
func ParseManifest(src string) (*Manifest, error) {
	root, err := parseYAML(src)
	if err != nil {
		return nil, err
	}
	top, ok := root.mapping["spack"]
	if root.mapping == nil || !ok {
		return nil, fmt.Errorf("env: manifest has no top-level `spack:` section")
	}
	if !top.isMapping() {
		return nil, fmt.Errorf("env: `spack:` must be a mapping of sections")
	}
	m := &Manifest{}
	for _, key := range top.keys {
		child := top.mapping[key]
		switch key {
		case "specs":
			if !child.isList() {
				return nil, fmt.Errorf("env: specs must be a list")
			}
			m.Specs = append(m.Specs, child.list...)
		case "view":
			if !child.isMapping() {
				return nil, fmt.Errorf("env: view must be a mapping of settings")
			}
			v := &View{}
			for _, vk := range child.keys {
				if !child.mapping[vk].isScalar() {
					return nil, fmt.Errorf("env: view setting %q must be one value", vk)
				}
				val := child.mapping[vk].scalar
				switch vk {
				case "path":
					v.Path = val
				case "projection":
					v.Projection = val
				case "conflict":
					v.Conflict = val
				default:
					return nil, fmt.Errorf("env: unknown view setting %q", vk)
				}
			}
			if v.Path == "" {
				return nil, fmt.Errorf("env: view needs a path")
			}
			if p := v.ConflictPolicy(); p != "user" && p != "site" {
				return nil, fmt.Errorf("env: view conflict policy %q (want user or site)", p)
			}
			m.View = v
		case "config":
			if !child.isMapping() {
				return nil, fmt.Errorf("env: config must be a mapping of settings")
			}
			for _, ck := range child.keys {
				cc := child.mapping[ck]
				switch ck {
				case "compiler_order":
					if !cc.isScalar() {
						return nil, fmt.Errorf("env: compiler_order must be one comma-separated value")
					}
					m.CompilerOrder = cc.scalar
				case "providers":
					if !cc.isMapping() {
						return nil, fmt.Errorf("env: providers must be a mapping of virtuals")
					}
					for _, virt := range cc.keys {
						if !cc.mapping[virt].isList() {
							return nil, fmt.Errorf("env: %s providers must be a list", virt)
						}
						names := cc.mapping[virt].list
						for _, name := range names {
							// Render writes an inline list, which splits
							// on commas.
							if strings.Contains(name, ",") {
								return nil, fmt.Errorf("env: %s provider %q is not a package name", virt, name)
							}
						}
						if m.Providers == nil {
							m.Providers = map[string][]string{}
						}
						m.Providers[virt] = append([]string(nil), names...)
					}
				default:
					return nil, fmt.Errorf("env: unknown config setting %q", ck)
				}
			}
		default:
			return nil, fmt.Errorf("env: unknown manifest section %q", key)
		}
	}
	return m, nil
}

// Render writes the manifest back in canonical form (the inverse of
// ParseManifest, stable under round trips).
func (m *Manifest) Render() string {
	var b strings.Builder
	b.WriteString("spack:\n")
	b.WriteString("  specs:\n")
	for _, s := range m.Specs {
		fmt.Fprintf(&b, "  - %s\n", s)
	}
	if v := m.View; v != nil {
		b.WriteString("  view:\n")
		fmt.Fprintf(&b, "    path: %s\n", v.Path)
		if v.Projection != "" {
			fmt.Fprintf(&b, "    projection: %s\n", v.Projection)
		}
		if v.Conflict != "" {
			fmt.Fprintf(&b, "    conflict: %s\n", v.Conflict)
		}
	}
	if m.CompilerOrder != "" || len(m.Providers) > 0 {
		b.WriteString("  config:\n")
		if m.CompilerOrder != "" {
			fmt.Fprintf(&b, "    compiler_order: %s\n", m.CompilerOrder)
		}
		if len(m.Providers) > 0 {
			b.WriteString("    providers:\n")
			virts := make([]string, 0, len(m.Providers))
			for v := range m.Providers {
				virts = append(virts, v)
			}
			sort.Strings(virts)
			for _, v := range virts {
				fmt.Fprintf(&b, "      %s: [%s]\n", v, strings.Join(m.Providers[v], ", "))
			}
		}
	}
	return b.String()
}
