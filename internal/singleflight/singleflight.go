// Package singleflight coalesces concurrent calls for the same key: the
// first caller becomes the leader and runs the work; every caller arriving
// while that flight is live blocks on its outcome and shares it, result
// and error alike. When the flight lands the key is retired, so later
// calls start afresh instead of pinning a stale result.
//
// It is the repo's one coalescing primitive. The store uses it per full
// hash (the builder runs once per configuration on one machine), and the
// daemon uses it per request key (one concretize-and-build or splice
// pipeline serves a herd of remote clients).
package singleflight

import "sync"

// Group is a set of keyed flights. The zero value is ready to use; a Group
// must not be copied after first use.
type Group[T any] struct {
	mu sync.Mutex
	m  map[string]*call[T]
}

type call[T any] struct {
	done chan struct{}
	out  T
	err  error
}

// Do runs fn under key's flight and returns its outcome. shared reports
// whether this call waited on a leader started by someone else instead of
// running fn itself.
func (g *Group[T]) Do(key string, fn func() (T, error)) (out T, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.out, true, c.err
	}
	if g.m == nil {
		g.m = make(map[string]*call[T])
	}
	c := &call[T]{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	c.out, c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.out, false, c.err
}
