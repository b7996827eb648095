package main

import (
	"io"
	"net/http"
	"sync/atomic"

	"repro/internal/buildcache"
	"repro/internal/concretize"
	"repro/internal/spec"
)

// The decorators below time calls into a layer from the benchmark's own
// files. Each forwards every method of the value it wraps, including the
// optional interfaces the program type-asserts for, so the program takes
// the same paths with and without them.

// tracedReuse decorates a concretize.ReuseSource. Every concretization
// with reuse consults the snapshot through ReuseFingerprint; only a moved
// fingerprint makes the concretizer enumerate ReuseCandidates again.
type tracedReuse struct {
	inner concretize.ReuseSource
	ot    *opTrace // the current operation; nil when untraced
	// lookups counts ReuseFingerprint calls, rebuilds ReuseCandidates
	// calls.
	lookups, rebuilds atomic.Int64
}

func (r *tracedReuse) ReuseFingerprint() string {
	r.lookups.Add(1)
	t := r.ot.mark()
	fp := r.inner.ReuseFingerprint()
	r.ot.leaf("concretize.reuse_snapshot", t)
	return fp
}

func (r *tracedReuse) ReuseCandidates() (map[string]*spec.Spec, error) {
	r.rebuilds.Add(1)
	t := r.ot.mark()
	c, err := r.inner.ReuseCandidates()
	r.ot.leaf("concretize.reuse_snapshot", t)
	return c, err
}

// meteredBackend decorates a buildcache.Backend: Stat is the builder's
// cache probe, Get moves archives, checksums, metadata and signatures.
// Calls are counted by their spans; fetchBytes adds up what Get returned.
type meteredBackend struct {
	inner      buildcache.Backend
	ot         *opTrace
	fetchBytes *atomic.Int64
}

func (b *meteredBackend) Put(name string, data []byte) error { return b.inner.Put(name, data) }
func (b *meteredBackend) List() ([]string, error)            { return b.inner.List() }
func (b *meteredBackend) Delete(name string) error           { return b.inner.Delete(name) }

func (b *meteredBackend) Stat(name string) (bool, error) {
	t := b.ot.mark()
	ok, err := b.inner.Stat(name)
	b.ot.leaf("buildcache.probe", t)
	return ok, err
}

func (b *meteredBackend) Get(name string) ([]byte, bool, error) {
	t := b.ot.mark()
	data, ok, err := b.inner.Get(name)
	b.ot.leaf("buildcache.fetch", t)
	b.fetchBytes.Add(int64(len(data)))
	return data, ok, err
}

// decorateMirror wraps the shared cache's mirror backend. The result
// still implements Summer and UsageReporter, the optional refinements a
// MirrorBackend has, so the cache takes the same paths.
func decorateMirror(inner *buildcache.MirrorBackend, ot *opTrace, fetchBytes *atomic.Int64) buildcache.Backend {
	return struct {
		*meteredBackend
		buildcache.Summer
		buildcache.UsageReporter
	}{&meteredBackend{inner: inner, ot: ot, fetchBytes: fetchBytes}, inner, inner}
}

// meteredVerifier decorates a buildcache.Verifier: one call per detached
// signature checked.
type meteredVerifier struct {
	inner buildcache.Verifier
	ot    *opTrace
	calls atomic.Int64
}

func (v *meteredVerifier) VerifySignature(message string, sig []byte) error {
	v.calls.Add(1)
	t := v.ot.mark()
	err := v.inner.VerifySignature(message, sig)
	v.ot.leaf("buildcache.verify", t)
	return err
}

// tracedTransport decorates an http.RoundTripper. service.roundtrip is
// the time until the response headers arrive (request write, daemon work,
// response headers); service.decode runs from there until the caller
// closes the body, which covers reading and decoding it.
type tracedTransport struct {
	inner http.RoundTripper
	ot    *opTrace // the client's current operation; nil when untraced
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ot := t.ot
	if ot == nil {
		return t.inner.RoundTrip(req)
	}
	start := ot.mark()
	resp, err := t.inner.RoundTrip(req)
	ot.leaf("service.roundtrip", start)
	if err == nil {
		resp.Body = &tracedBody{ReadCloser: resp.Body, ot: ot, start: ot.mark()}
	}
	return resp, err
}

// CloseIdleConnections forwards http.Client's optional transport method.
func (t *tracedTransport) CloseIdleConnections() {
	if c, ok := t.inner.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

type tracedBody struct {
	io.ReadCloser
	ot    *opTrace
	start int64
	done  bool
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.done {
		b.done = true
		b.ot.leaf("service.decode", b.start)
	}
	return err
}
