package syntax

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"repro/internal/jsonenc"
	"repro/internal/spec"
)

// EncodeJSON serializes a spec DAG with full edge fidelity, indented:
// the bytes the store, the journal and the buildcache keep.
func EncodeJSON(s *spec.Spec) []byte { return AppendJSON(nil, s, true) }

// AppendJSON appends the spec JSON of s to dst. With indent, the bytes
// are EncodeJSON's, exactly json.MarshalIndent(specJSON, "", "  "): keys
// sorted, two-space indentation, empty optional maps omitted. Without,
// they are the same document with no whitespace (json.Compact of it),
// the form the daemon sends on the wire. They are written by hand
// because every install encodes its spec into the provenance file, the
// journal and the index, and the reflection encoder dominated that cost.
func AppendJSON(dst []byte, s *spec.Spec, indent bool) []byte {
	// The nodes Traverse visits (each name once), sorted by name.
	nodes := s.Nodes()
	slices.SortFunc(nodes, func(a, b *spec.Spec) int { return strings.Compare(a.Name, b.Name) })
	dst = appendKey(append(dst, '{'), 0, indent, 2, "root")
	dst = jsonenc.String(dst, s.Name)
	dst = append(appendKey(dst, 1, indent, 2, "nodes"), '{')
	for i, n := range nodes {
		dst = appendKey(dst, i, indent, 4, n.Name)
		dst = append(dst, '"')
		start := len(dst)
		dst = append(jsonenc.Escape(n.AppendNode(dst), start), '"')
	}
	dst = closeObject(dst, len(nodes), indent, 2)

	dst = appendSection(dst, nodes, indent, "edges", func(n *spec.Spec) bool { return len(n.DirectDeps()) > 0 },
		func(dst []byte, n *spec.Spec) []byte {
			dst = append(dst, '[')
			for i, d := range n.DirectDeps() {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = jsonenc.String(newline(dst, indent, 6), d.Name)
			}
			return append(newline(dst, indent, 4), ']')
		})
	dst = appendSection(dst, nodes, indent, "edgetypes",
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
					dst = appendKey(dst, k, indent, 6, d.Name)
					dst = jsonenc.String(dst, t.String())
					k++
				}
			})
			return append(newline(dst, indent, 4), '}')
		})
	dst = appendSection(dst, nodes, indent, "external", func(n *spec.Spec) bool { return n.External },
		func(dst []byte, n *spec.Spec) []byte { return jsonenc.String(dst, n.Path) })
	dst = appendSection(dst, nodes, indent, "namespace", func(n *spec.Spec) bool { return n.Namespace != "" },
		func(dst []byte, n *spec.Spec) []byte { return jsonenc.String(dst, n.Namespace) })
	return append(newline(dst, indent, 0), '}')
}

// newline appends, with indent, a newline and depth spaces, and nothing
// without.
func newline(dst []byte, indent bool, depth int) []byte {
	if !indent {
		return dst
	}
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ')
	}
	return dst
}

// appendKey opens the i-th member of an object: a separator, the
// newline and indentation of depth, and the quoted key.
func appendKey(dst []byte, i int, indent bool, depth int, key string) []byte {
	if i > 0 {
		dst = append(dst, ',')
	}
	dst = jsonenc.String(newline(dst, indent, depth), key)
	if indent {
		return append(dst, ": "...)
	}
	return append(dst, ':')
}

// closeObject closes an object of n members whose closing brace sits at
// depth.
func closeObject(dst []byte, n int, indent bool, depth int) []byte {
	if n == 0 {
		return append(dst, '}')
	}
	return append(newline(dst, indent, depth), '}')
}

// appendSection appends an optional top-level map (omitted when empty)
// with one member per node that has, rendered by value.
func appendSection(dst []byte, nodes []*spec.Spec, indent bool, key string, has func(*spec.Spec) bool,
	value func([]byte, *spec.Spec) []byte) []byte {
	k := 0
	for _, n := range nodes {
		if !has(n) {
			continue
		}
		if k == 0 {
			dst = append(appendKey(dst, 1, indent, 2, key), '{')
		}
		dst = value(appendKey(dst, k, indent, 4, n.Name), n)
		k++
	}
	if k > 0 {
		dst = closeObject(dst, k, indent, 2)
	}
	return dst
}

// dagFields are the spec JSON document's keys, indexed by the field
// constants below.
var dagFields = []string{"root", "nodes", "edges", "edgetypes", "external", "namespace"}

const (
	fieldRoot = iota
	fieldNodes
	fieldEdges
	fieldEdgeTypes
	fieldExternal
	fieldNamespace
)

// member is one name: value pair of a top-level map. For nodes, external
// and namespace, value is the decoded string (empty for null); for edges
// and edgetypes it is the raw JSON of the array or object, validated and
// read again when the edges are attached, and for edges n counts the
// array's elements.
type member struct {
	name, value []byte
	n           int
}

// DecodeJSON reconstructs a spec DAG serialized by EncodeJSON. It reads
// the document once with a jsonenc.Reader and builds no map: each
// top-level map is kept as its members, sorted by name, and searched.
// The nodes share one allocation, and a node string in the canonical
// shape EncodeJSON writes is read by a direct scanner (scanNode); any
// other string is parsed.
//
// It accepts what encoding/json accepts when it unmarshals the document
// into its six typed fields, with the same result: unknown keys are
// skipped, a repeated key's last value wins, null leaves the root as it
// was and empties a map. The one difference is case: a key that matches
// a field name only up to case ("Root", "NODES") is an error here, where
// encoding/json would read it as that field.
func DecodeJSON(data []byte) (*spec.Spec, error) {
	var root []byte
	var maps [fieldNamespace + 1][]member
	r := jsonenc.NewReader(data)
	if !r.Null() && r.Object() {
		for key, ok := r.Key(); ok; key, ok = r.Key() {
			switch f := r.Field(key, dagFields); {
			case f < 0:
				r.Skip()
			case r.Null():
				maps[f] = maps[f][:0]
			case f == fieldRoot:
				root = r.Str()
			default:
				maps[f] = readMap(&r, maps[f], f)
			}
		}
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("syntax: bad spec JSON: %w", err)
	}
	if len(root) == 0 {
		return nil, fmt.Errorf("syntax: spec JSON has no root")
	}
	for f := range maps {
		maps[f] = lastByName(maps[f])
	}
	members := maps[fieldNodes]
	// One string holds every node string, so the nodes' names, versions
	// and architectures are substrings of it.
	size := 0
	for _, m := range members {
		size += len(m.value)
	}
	var text strings.Builder
	text.Grow(size)
	for _, m := range members {
		text.Write(m.value)
	}
	all := text.String()
	slab := make([]spec.Spec, len(members))
	nodes := make([]*spec.Spec, len(members))
	var nss []string // the namespaces read so far: a DAG spans few
	var comp scannedCompiler
	for i, m := range members {
		str := all[:len(m.value)]
		all = all[len(m.value):]
		n := &slab[i]
		if !scanNode(n, str, &comp) {
			var err error
			if n, err = Parse(str); err != nil {
				return nil, fmt.Errorf("syntax: node %s: %w", m.name, err)
			}
		}
		if n.Name != string(m.name) {
			return nil, fmt.Errorf("syntax: node key %q renders as %q", m.name, n.Name)
		}
		if j, ok := search(maps[fieldExternal], m.name); ok {
			n.External = true
			n.Path = string(maps[fieldExternal][j].value)
		}
		if j, ok := search(maps[fieldNamespace], m.name); ok {
			v := maps[fieldNamespace][j].value
			k := slices.IndexFunc(nss, func(ns string) bool { return ns == string(v) })
			if k < 0 {
				k, nss = len(nss), append(nss, string(v))
			}
			n.Namespace = nss[k]
		}
		nodes[i] = n
	}
	for _, m := range maps[fieldEdges] {
		i, ok := search(members, m.name)
		if !ok {
			return nil, fmt.Errorf("syntax: edge from unknown node %q", m.name)
		}
		var types []byte
		if j, ok := search(maps[fieldEdgeTypes], m.name); ok {
			types = maps[fieldEdgeTypes][j].value
		}
		er := jsonenc.NewReader(m.value)
		if er.Null() || !er.Array() {
			continue
		}
		nodes[i].GrowDeps(m.n)
		for er.Elem() {
			var d []byte
			if !er.Null() {
				d = er.Str()
			}
			c, ok := search(members, d)
			if !ok {
				return nil, fmt.Errorf("syntax: edge to unknown node %q", d)
			}
			t := spec.DepDefault
			if ts, ok := edgeType(types, d); ok {
				var err error
				if t, err = parseDepType(string(ts)); err != nil {
					return nil, err
				}
			}
			nodes[i].SetDep(nodes[c], t)
		}
	}
	i, ok := search(members, root)
	if !ok {
		return nil, fmt.Errorf("syntax: root %q not among nodes", root)
	}
	return nodes[i], nil
}

// readMap appends the members of the map-valued field f to dst, checking
// that each value has the field's type: a string, an array of strings,
// or (edgetypes) an object of strings, null allowed wherever a string or
// a whole member is.
func readMap(r *jsonenc.Reader, dst []member, f int) []member {
	if !r.Object() {
		return dst
	}
	for key, ok := r.Key(); ok; key, ok = r.Key() {
		m := member{name: key}
		switch start := r.Offset(); {
		case r.Null():
		case f == fieldEdges:
			r.Array()
			for r.Elem() {
				if !r.Null() {
					r.Str()
				}
				m.n++
			}
			m.value = r.Since(start)
		case f == fieldEdgeTypes:
			r.Object()
			for _, ok := r.Key(); ok; _, ok = r.Key() {
				if !r.Null() {
					r.Str()
				}
			}
			m.value = r.Since(start)
		default:
			m.value = r.Str()
		}
		dst = append(dst, m)
	}
	return dst
}

// lastByName sorts a map's members by name and keeps the last of each
// run of one name, the value encoding/json's map decoding keeps.
func lastByName(ms []member) []member {
	slices.SortStableFunc(ms, func(a, b member) int { return bytes.Compare(a.name, b.name) })
	out := ms[:0]
	for i, m := range ms {
		if i+1 == len(ms) || !bytes.Equal(m.name, ms[i+1].name) {
			out = append(out, m)
		}
	}
	return out
}

// search finds the member named name in name-sorted members.
func search(ms []member, name []byte) (int, bool) {
	lo, hi := 0, len(ms)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); string(ms[mid].name) < string(name) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(ms) && string(ms[lo].name) == string(name)
}

// edgeType looks dep up in one parent's raw edgetypes object (nil when
// it has none, as most parents do); the last member of that name wins.
func edgeType(raw, dep []byte) ([]byte, bool) {
	var t []byte
	found := false
	r := jsonenc.NewReader(raw)
	if raw == nil || r.Null() || !r.Object() {
		return nil, false
	}
	for key, ok := r.Key(); ok; key, ok = r.Key() {
		var v []byte
		if !r.Null() {
			v = r.Str()
		}
		if bytes.Equal(key, dep) {
			t, found = v, true
		}
	}
	return t, found
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
