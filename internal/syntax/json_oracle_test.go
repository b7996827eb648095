package syntax

import (
	"encoding/json"
	"sort"

	"repro/internal/spec"
)

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
