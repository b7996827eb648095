package syntax

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"repro/internal/jsonenc"
	"repro/internal/spec"
)

// specJSON is the serialized form of a spec DAG. Unlike the command-line
// rendering (which flattens dependencies under the root), it preserves the
// exact edge structure, so DAG hashes survive a round trip — required for
// store databases and reindexing (§3.4.3's reproducibility files).
type specJSON struct {
	Root string `json:"root"`
	// Nodes maps package name to the node's own constraints rendered in
	// spec syntax (no dependency clauses).
	Nodes map[string]string `json:"nodes"`
	// Edges maps package name to its direct dependency names.
	Edges map[string][]string `json:"edges,omitempty"`
	// EdgeTypes records non-default edge classifications as
	// parent -> dep -> "build"/"build,link"/... strings.
	EdgeTypes map[string]map[string]string `json:"edgetypes,omitempty"`
	// External maps package name to the external path for nodes satisfied
	// outside the store.
	External map[string]string `json:"external,omitempty"`
	// Namespace maps package name to its providing repository.
	Namespace map[string]string `json:"namespace,omitempty"`
}

// EncodeJSON serializes a spec DAG with full edge fidelity.
func EncodeJSON(s *spec.Spec) []byte { return AppendJSON(nil, s) }

// AppendJSON appends EncodeJSON's encoding of s to dst. The bytes are
// exactly json.MarshalIndent(specJSON, "", "  "): keys sorted, two-space
// indentation, empty optional maps omitted. They are written by hand
// because every install encodes its spec into the provenance file, the
// journal and the index, and the reflection encoder dominated that cost.
func AppendJSON(dst []byte, s *spec.Spec) []byte {
	// The nodes Traverse visits (each name once), sorted by name.
	nodes := s.Nodes()
	slices.SortFunc(nodes, func(a, b *spec.Spec) int { return strings.Compare(a.Name, b.Name) })
	dst = append(dst, "{\n  \"root\": "...)
	dst = jsonenc.String(dst, s.Name)
	dst = append(dst, ",\n  \"nodes\": {"...)
	for i, n := range nodes {
		dst = appendKey(dst, i, 4, n.Name)
		dst = append(dst, '"')
		start := len(dst)
		dst = append(jsonenc.Escape(n.AppendNode(dst), start), '"')
	}
	dst = closeObject(dst, len(nodes), 2)

	dst = appendSection(dst, nodes, "edges", func(n *spec.Spec) bool { return len(n.DirectDeps()) > 0 },
		func(dst []byte, n *spec.Spec) []byte {
			dst = append(dst, '[')
			for i, d := range n.DirectDeps() {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = append(dst, "\n      "...)
				dst = jsonenc.String(dst, d.Name)
			}
			return append(dst, "\n    ]"...)
		})
	dst = appendSection(dst, nodes, "edgetypes",
		func(n *spec.Spec) bool {
			for _, d := range n.DirectDeps() {
				if n.EdgeType(d.Name) != spec.DepDefault {
					return true
				}
			}
			return false
		},
		func(dst []byte, n *spec.Spec) []byte {
			dst = append(dst, '{')
			k := 0
			n.EachDep(func(d *spec.Spec, t spec.DepType) {
				if t != spec.DepDefault {
					dst = appendKey(dst, k, 6, d.Name)
					dst = jsonenc.String(dst, t.String())
					k++
				}
			})
			return append(dst, "\n    }"...)
		})
	dst = appendSection(dst, nodes, "external", func(n *spec.Spec) bool { return n.External },
		func(dst []byte, n *spec.Spec) []byte { return jsonenc.String(dst, n.Path) })
	dst = appendSection(dst, nodes, "namespace", func(n *spec.Spec) bool { return n.Namespace != "" },
		func(dst []byte, n *spec.Spec) []byte { return jsonenc.String(dst, n.Namespace) })
	return append(dst, "\n}"...)
}

// appendKey opens the i-th member of an indented object: a separator,
// a newline, indent spaces and the quoted key.
func appendKey(dst []byte, i, indent int, key string) []byte {
	if i > 0 {
		dst = append(dst, ',')
	}
	dst = append(dst, '\n')
	for ; indent > 0; indent-- {
		dst = append(dst, ' ')
	}
	dst = jsonenc.String(dst, key)
	return append(dst, ": "...)
}

// closeObject closes an indented object of n members whose closing brace
// sits at indent.
func closeObject(dst []byte, n, indent int) []byte {
	if n == 0 {
		return append(dst, '}')
	}
	dst = append(dst, '\n')
	for ; indent > 0; indent-- {
		dst = append(dst, ' ')
	}
	return append(dst, '}')
}

// appendSection appends an optional top-level map (omitted when empty)
// with one member per node that has, rendered by value.
func appendSection(dst []byte, nodes []*spec.Spec, key string, has func(*spec.Spec) bool,
	value func([]byte, *spec.Spec) []byte) []byte {
	k := 0
	for _, n := range nodes {
		if !has(n) {
			continue
		}
		if k == 0 {
			dst = append(dst, ",\n  \""...)
			dst = append(dst, key...)
			dst = append(dst, "\": {"...)
		}
		dst = value(appendKey(dst, k, 4, n.Name), n)
		k++
	}
	if k > 0 {
		dst = closeObject(dst, k, 2)
	}
	return dst
}

// DecodeJSON reconstructs a spec DAG serialized by EncodeJSON.
func DecodeJSON(data []byte) (*spec.Spec, error) {
	var in specJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("syntax: bad spec JSON: %w", err)
	}
	if in.Root == "" {
		return nil, fmt.Errorf("syntax: spec JSON has no root")
	}
	nodes := make(map[string]*spec.Spec, len(in.Nodes))
	for name, expr := range in.Nodes {
		n, err := Parse(expr)
		if err != nil {
			return nil, fmt.Errorf("syntax: node %s: %w", name, err)
		}
		if n.Name != name {
			return nil, fmt.Errorf("syntax: node key %q renders as %q", name, n.Name)
		}
		if path, ok := in.External[name]; ok {
			n.External = true
			n.Path = path
		}
		if ns, ok := in.Namespace[name]; ok {
			n.Namespace = ns
		}
		nodes[name] = n
	}
	for name, deps := range in.Edges {
		parent, ok := nodes[name]
		if !ok {
			return nil, fmt.Errorf("syntax: edge from unknown node %q", name)
		}
		for _, d := range deps {
			child, ok := nodes[d]
			if !ok {
				return nil, fmt.Errorf("syntax: edge to unknown node %q", d)
			}
			t := spec.DepDefault
			if ts, ok := in.EdgeTypes[name][d]; ok {
				var err error
				if t, err = parseDepType(ts); err != nil {
					return nil, err
				}
			}
			parent.SetDep(child, t)
		}
	}
	root, ok := nodes[in.Root]
	if !ok {
		return nil, fmt.Errorf("syntax: root %q not among nodes", in.Root)
	}
	return root, nil
}

// parseDepType parses a comma-separated edge-type string.
func parseDepType(s string) (spec.DepType, error) {
	var t spec.DepType
	for _, part := range strings.Split(s, ",") {
		switch part {
		case "build":
			t |= spec.DepBuild
		case "link":
			t |= spec.DepLink
		case "run":
			t |= spec.DepRun
		case "none", "":
		default:
			return 0, fmt.Errorf("syntax: unknown dep type %q", part)
		}
	}
	return t, nil
}
