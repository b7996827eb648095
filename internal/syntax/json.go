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
	nodes, deps := encodeOrder(s)
	dst = append(dst, "{\n  \"root\": "...)
	dst = jsonenc.String(dst, s.Name)
	dst = append(dst, ",\n  \"nodes\": {"...)
	for i, e := range nodes {
		dst = appendKey(dst, i, 4, e.n.Name)
		dst = append(dst, '"')
		start := len(dst)
		dst = append(jsonenc.Escape(e.n.AppendNode(dst), start), '"')
	}
	dst = closeObject(dst, len(nodes), 2)

	dst = appendSection(dst, nodes, "edges", func(e encNode) bool { return e.lo < e.hi },
		func(dst []byte, e encNode) []byte {
			dst = append(dst, '[')
			for i, d := range deps[e.lo:e.hi] {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = append(dst, "\n      "...)
				dst = jsonenc.String(dst, d)
			}
			return append(dst, "\n    ]"...)
		})
	dst = appendSection(dst, nodes, "edgetypes",
		func(e encNode) bool {
			for _, d := range deps[e.lo:e.hi] {
				if e.n.EdgeType(d) != spec.DepDefault {
					return true
				}
			}
			return false
		},
		func(dst []byte, e encNode) []byte {
			dst = append(dst, '{')
			k := 0
			for _, d := range deps[e.lo:e.hi] {
				if t := e.n.EdgeType(d); t != spec.DepDefault {
					dst = appendKey(dst, k, 6, d)
					dst = jsonenc.String(dst, t.String())
					k++
				}
			}
			return append(dst, "\n    }"...)
		})
	dst = appendSection(dst, nodes, "external", func(e encNode) bool { return e.n.External },
		func(dst []byte, e encNode) []byte { return jsonenc.String(dst, e.n.Path) })
	dst = appendSection(dst, nodes, "namespace", func(e encNode) bool { return e.n.Namespace != "" },
		func(dst []byte, e encNode) []byte { return jsonenc.String(dst, e.n.Namespace) })
	return append(dst, "\n}"...)
}

// encNode is one DAG node in encoding order; deps[lo:hi] are the names of
// its direct dependencies, sorted.
type encNode struct {
	n      *spec.Spec
	lo, hi int
}

// encodeOrder lists the nodes Traverse visits — root first, dependencies
// in name order, each name once — sorted by name, with every node's
// sorted dependency names in one shared slice.
func encodeOrder(s *spec.Spec) ([]encNode, []string) {
	var nodes []encNode
	var deps []string
	seen := make(map[string]bool)
	var walk func(n *spec.Spec)
	walk = func(n *spec.Spec) {
		if seen[n.Name] {
			return
		}
		seen[n.Name] = true
		lo := len(deps)
		for name := range n.Deps {
			deps = append(deps, name)
		}
		slices.Sort(deps[lo:])
		hi := len(deps)
		nodes = append(nodes, encNode{n: n, lo: lo, hi: hi})
		for i := lo; i < hi; i++ {
			walk(n.Deps[deps[i]])
		}
	}
	walk(s)
	slices.SortFunc(nodes, func(a, b encNode) int { return strings.Compare(a.n.Name, b.n.Name) })
	return nodes, deps
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
func appendSection(dst []byte, nodes []encNode, key string, has func(encNode) bool,
	value func([]byte, encNode) []byte) []byte {
	k := 0
	for _, e := range nodes {
		if !has(e) {
			continue
		}
		if k == 0 {
			dst = append(dst, ",\n  \""...)
			dst = append(dst, key...)
			dst = append(dst, "\": {"...)
		}
		dst = value(appendKey(dst, k, 4, e.n.Name), e)
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
			parent.EnsureMaps()
			parent.Deps[d] = child
			if ts, ok := in.EdgeTypes[name][d]; ok {
				t, err := parseDepType(ts)
				if err != nil {
					return nil, err
				}
				parent.SetDepType(d, t)
			}
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
