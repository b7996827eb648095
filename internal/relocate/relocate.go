// Package relocate is the shared binary-relocation engine behind the
// build cache and the splice operation (SC'15 §3.4's prefix rewriting
// plus §3.5.2's rpath isolation). It owns the mechanics of moving an
// installed prefix between path namespaces: longest-source-first rewrite
// tables, single-pass byte rewriting with per-source occurrence counts,
// count verification against a recorded relocation table, an rpath sanity
// scan, and the materialization of a relocated file set into a new,
// transaction-owned target prefix, one write per file.
//
// Table.Rewrite is the one rewrite path for Push (an identity table, to
// count), Pull and splice. It does not test every source at every byte:
// it keeps the next occurrence of each source, jumps to the leftmost
// (longest source on a tie), copies the unmatched stretch before it in
// bulk, and searches again only for the sources that match consumed. A
// file no source occurs in costs one search per source and comes back
// uncopied.
//
// Two consumers share it: buildcache.Pull relocates archives packed on
// another machine into the local store, and splice rewires an installed
// DAG in place — replacing one dependency's prefix under every dependent
// without rebuilding them.
package relocate

import (
	"sort"
	"strings"
	"time"
)

// FileCPU is the simulated CPU cost of scanning and rewriting one file —
// tiny next to the compile time relocation replaces.
const FileCPU = 40 * time.Microsecond

// Rule is one source→target path rewrite.
type Rule struct {
	From string
	To   string
}

// Table is an ordered set of rewrite rules, longest source first, so
// nested paths (a dependency prefix inside the store root) are matched
// before their parents — replacing the root first would corrupt every
// prefix occurrence under it.
type Table []Rule

// NewTable builds a Table from source→target pairs, ordered longest
// source first (ties break lexicographically for determinism).
func NewTable(pairs map[string]string) Table {
	out := make(Table, 0, len(pairs))
	for from, to := range pairs {
		out = append(out, Rule{From: from, To: to})
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].From) != len(out[j].From) {
			return len(out[i].From) > len(out[j].From)
		}
		return out[i].From < out[j].From
	})
	return out
}

// Identity builds a Table mapping each path to itself — the packer's
// table: rewriting is a no-op but the occurrence counts record how many
// times each source appears, which is what Push stores for Pull to verify.
func Identity(paths ...string) Table {
	pairs := make(map[string]string, len(paths))
	for _, p := range paths {
		pairs[p] = p
	}
	return NewTable(pairs)
}

// Rewrite rewrites every occurrence of the table's source paths in one
// pass (leftmost match, longest source wins) and returns the result plus
// per-source occurrence counts (nil when no source occurs), jumping from
// match to match as the package doc describes.
func (t Table) Rewrite(data []byte) ([]byte, map[string]int) {
	var counts map[string]int
	s := string(data)
	// next[k] is where t[k].From next occurs at or after the cursor, or
	// -1 when it occurs no more (an empty source never matches).
	var buf [64]int
	next := buf[:0]
	if len(t) > len(buf) {
		next = make([]int, 0, len(t))
	}
	for _, r := range t {
		next = append(next, indexFrom(s, r.From, 0))
	}
	var out []byte
	done := 0 // s[:done] is rewritten into out
	for {
		// The table is longest source first, so the first rule at the
		// leftmost position is the longest source there.
		best := -1
		for k, p := range next {
			if p >= 0 && (best < 0 || p < next[best]) {
				best = k
			}
		}
		if best < 0 {
			break
		}
		r := t[best]
		if out == nil {
			out = make([]byte, 0, len(s))
			counts = make(map[string]int)
		}
		out = append(append(out, s[done:next[best]]...), r.To...)
		counts[r.From]++
		done = next[best] + len(r.From)
		for k, p := range next {
			if p >= 0 && p < done {
				next[k] = indexFrom(s, t[k].From, done)
			}
		}
	}
	if out == nil {
		return data, counts
	}
	return append(out, s[done:]...), counts
}

// indexFrom is the position of the first occurrence of sub in s at or
// after from, or -1; an empty sub never occurs.
func indexFrom(s, sub string, from int) int {
	if sub == "" {
		return -1
	}
	i := strings.Index(s[from:], sub)
	if i < 0 {
		return -1
	}
	return from + i
}

// RewriteString rewrites a single string (symlink targets).
func (t Table) RewriteString(s string) string {
	out, _ := t.Rewrite([]byte(s))
	return string(out)
}

// CountsEqual compares a re-count against a recorded table, ignoring
// zero entries on either side — a source recorded with zero occurrences
// constrains nothing.
func CountsEqual(got, want map[string]int) bool {
	for k, v := range want {
		if v != 0 && got[k] != v {
			return false
		}
	}
	for k, v := range got {
		if v != 0 && want[k] != v {
			return false
		}
	}
	return true
}

// Clean reports whether a count set records no occurrences at all.
func Clean(counts map[string]int) bool {
	for _, v := range counts {
		if v != 0 {
			return false
		}
	}
	return true
}

// RecordedOrClean accepts a file whose occurrence counts are either
// recorded in the relocation table or empty — occurrences the packer did
// not record mean the file set and its table disagree.
func RecordedOrClean(want map[string]map[string]int, path string, counts map[string]int) bool {
	if _, recorded := want[path]; recorded {
		return true
	}
	return Clean(counts)
}
