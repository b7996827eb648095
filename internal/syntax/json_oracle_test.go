package syntax

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/spec"
)

// specJSON is the serialized form of a spec DAG, as the reflection oracles
// read and write it. Unlike the command-line rendering (which flattens
// dependencies under the root), it preserves the exact edge structure.
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

// encodeJSONOracle is the reflection encoder EncodeJSON replaced: the
// specJSON document filled from a Traverse and rendered by
// json.MarshalIndent. The parity tests and FuzzSpecJSON hold EncodeJSON
// to its output byte for byte.
func encodeJSONOracle(s *spec.Spec) ([]byte, error) {
	out := specJSON{
		Root:      s.Name,
		Nodes:     make(map[string]string),
		Edges:     make(map[string][]string),
		EdgeTypes: make(map[string]map[string]string),
		External:  make(map[string]string),
		Namespace: make(map[string]string),
	}
	s.Traverse(func(n *spec.Spec) bool {
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
		for _, d := range n.DirectDeps() {
			deps = append(deps, d.Name)
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
	return json.MarshalIndent(out, "", "  ")
}

// decodeJSONOracle is the reflection decoder DecodeJSON replaced:
// json.Unmarshal into specJSON, then the nodes parsed and the edges
// attached. FuzzDecodeJSONMatchesOracle holds DecodeJSON to it.
func decodeJSONOracle(data []byte) (*spec.Spec, error) {
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
