package syntax

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

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
func EncodeJSON(s *spec.Spec) ([]byte, error) {
	out := specJSON{
		Root:      s.Name,
		Nodes:     make(map[string]string),
		Edges:     make(map[string][]string),
		EdgeTypes: make(map[string]map[string]string),
		External:  make(map[string]string),
		Namespace: make(map[string]string),
	}
	var fail error
	s.Traverse(func(n *spec.Spec) bool {
		// Render the node alone: a copy without edges. Externals render a
		// non-parseable suffix, so the copy drops it and the path is
		// recorded separately.
		node := &spec.Spec{Name: n.Name, Versions: n.Versions, Compiler: n.Compiler,
			Variants: n.Variants, Arch: n.Arch}
		out.Nodes[n.Name] = node.String()
		if n.External {
			out.External[n.Name] = n.Path
		}
		if n.Namespace != "" {
			out.Namespace[n.Name] = n.Namespace
		}
		var deps []string
		for name := range n.Deps {
			deps = append(deps, name)
		}
		sort.Strings(deps)
		if len(deps) > 0 {
			out.Edges[n.Name] = deps
		}
		for _, d := range deps {
			if t := n.EdgeType(d); t != spec.DepDefault {
				if out.EdgeTypes[n.Name] == nil {
					out.EdgeTypes[n.Name] = make(map[string]string)
				}
				out.EdgeTypes[n.Name][d] = t.String()
			}
		}
		return true
	})
	if fail != nil {
		return nil, fail
	}
	return json.MarshalIndent(out, "", "  ")
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
