package service_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/syntax"
)

// newDaemon wires a Server around a fresh machine and mounts it on an
// httptest listener. The machine's own mirror is the blob store, so
// archives pushed over HTTP are exactly what the server-side cache-first
// builder later pulls.
func newDaemon(t testing.TB) (*core.Spack, *service.Server, *httptest.Server) {
	t.Helper()
	s := core.MustNew(core.WithJobs(4))
	srv := service.NewServer(service.Config{
		Mirror:      s.Mirror,
		Concretizer: s.Concretizer,
		Builder:     s.Builder,
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return s, srv, ts
}

func TestBlobPutGetHead(t *testing.T) {
	_, srv, ts := newDaemon(t)
	payload := []byte("relocatable archive bytes")
	sum := sha256.Sum256(payload)
	wantETag := `"` + hex.EncodeToString(sum[:]) + `"`

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/blobs/demo/blob.bin", bytes.NewReader(payload))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status = %s, want 201", resp.Status)
	}
	if got := resp.Header.Get("ETag"); got != wantETag {
		t.Fatalf("PUT ETag = %s, want %s", got, wantETag)
	}

	resp, err = http.Get(ts.URL + "/v1/blobs/demo/blob.bin")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(body, payload) {
		t.Fatalf("GET returned %q, want %q", body, payload)
	}
	if got := resp.Header.Get("ETag"); got != wantETag {
		t.Fatalf("GET ETag = %s, want %s", got, wantETag)
	}

	resp, err = http.Head(ts.URL + "/v1/blobs/demo/blob.bin")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != wantETag {
		t.Fatalf("HEAD status = %s etag = %s", resp.Status, resp.Header.Get("ETag"))
	}

	resp, err = http.Get(ts.URL + "/v1/blobs/no/such/blob")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing blob status = %s, want 404", resp.Status)
	}

	st := srv.Stats()
	if st.Blobs.Requests < 4 {
		t.Fatalf("blob requests = %d, want >= 4", st.Blobs.Requests)
	}
	if st.Blobs.BytesIn != int64(len(payload)) {
		t.Fatalf("blob bytes_in = %d, want %d", st.Blobs.BytesIn, len(payload))
	}
}

func TestBlobConditionalAndRangeGet(t *testing.T) {
	_, srv, ts := newDaemon(t)
	payload := []byte("0123456789abcdef")
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/blobs/build_cache/x.bin", bytes.NewReader(payload))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	etag := resp.Header.Get("ETag")

	// Conditional get: a client re-validating its cached copy pays no
	// payload transfer.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/blobs/build_cache/x.bin", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET status = %s, want 304", resp.Status)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried %d payload bytes", len(body))
	}
	if hits := srv.Stats().Blobs.Hits; hits != 1 {
		t.Fatalf("blob hits = %d, want 1", hits)
	}

	// Range read: resuming a large archive transfer mid-way.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/blobs/build_cache/x.bin", nil)
	req.Header.Set("Range", "bytes=4-7")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("range GET status = %s, want 206", resp.Status)
	}
	if string(body) != "4567" {
		t.Fatalf("range GET body = %q, want %q", body, "4567")
	}
	if cr := resp.Header.Get("Content-Range"); cr != "bytes 4-7/16" {
		t.Fatalf("Content-Range = %q", cr)
	}
}

func TestBlobPutRejectsDigestMismatch(t *testing.T) {
	_, _, ts := newDaemon(t)
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/blobs/bad.bin", strings.NewReader("payload"))
	req.Header.Set("X-Content-Sha256", strings.Repeat("0", 64))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched digest PUT status = %s, want 400", resp.Status)
	}
	resp, err = http.Get(ts.URL + "/v1/blobs/bad.bin")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("rejected payload was stored anyway (status %s)", resp.Status)
	}
}

func TestBlobPutOverCacheBudget(t *testing.T) {
	s := core.MustNew(core.WithJobs(4))
	srv := service.NewServer(service.Config{
		Mirror:        s.Mirror,
		Concretizer:   s.Concretizer,
		Builder:       s.Builder,
		MaxCacheBytes: 1 << 10,
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	name := "build_cache/big.bin"
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/blobs/"+name, bytes.NewReader(make([]byte, 2<<10)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("PUT over the cache budget: status = %s, want 413", resp.Status)
	}
	if _, ok := s.Mirror.Blob(name); ok {
		t.Fatal("oversized blob was stored anyway")
	}
	if n := len(s.Mirror.Blobs()); n != 0 {
		t.Fatalf("mirror holds %d blobs after a rejected PUT, want 0", n)
	}
}

func TestBlobList(t *testing.T) {
	_, _, ts := newDaemon(t)
	be := service.NewHTTPBackend(ts.URL)
	if err := be.Put("aa.spack.json", []byte("archive")); err != nil {
		t.Fatal(err)
	}
	if err := be.Put("aa.sha256", []byte("sum\n")); err != nil {
		t.Fatal(err)
	}
	names, err := be.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"aa.sha256", "aa.spack.json"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("List = %v, want %v", names, want)
	}
}

func TestConcretizeEndpointMemoCache(t *testing.T) {
	s, srv, ts := newDaemon(t)
	cl := service.NewClient(ts.URL)

	first, err := cl.Concretize("mpileaks ^mvapich2@2.0")
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first concretization claimed a memo-cache hit")
	}
	second, err := cl.Concretize("mpileaks ^mvapich2@2.0")
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second concretization missed the shared memo cache")
	}
	if first.FullHash != second.FullHash {
		t.Fatalf("hashes differ: %s vs %s", first.FullHash, second.FullHash)
	}
	if hits := srv.Stats().Concretize.Hits; hits != 1 {
		t.Fatalf("concretize hits = %d, want 1", hits)
	}

	// The returned DAG is the exact concrete spec, edges and all: the
	// decoded client copy must agree with a local solve.
	answer, err := cl.Concretize("mpileaks ^mvapich2@2.0")
	if err != nil {
		t.Fatal(err)
	}
	remote, err := syntax.DecodeJSON(answer.DAG)
	if err != nil {
		t.Fatal(err)
	}
	local, err := s.Spec("mpileaks ^mvapich2@2.0")
	if err != nil {
		t.Fatal(err)
	}
	if remote.FullHash() != local.FullHash() {
		t.Fatalf("remote DAG hash %s != local %s", remote.FullHash(), local.FullHash())
	}

	if _, err := cl.Concretize("no-such-package"); err == nil {
		t.Fatal("concretizing an unknown package succeeded")
	}
}

func TestInstallEndpoint(t *testing.T) {
	s, srv, ts := newDaemon(t)
	cl := service.NewClient(ts.URL)

	resp, err := cl.Install("libdwarf")
	if err != nil {
		t.Fatal(err)
	}
	if resp.SourceBuilt == 0 {
		t.Fatalf("first install built nothing from source: %+v", resp)
	}
	if resp.Coalesced {
		t.Fatal("solo install claims it coalesced")
	}
	installed := false
	for _, rec := range s.Store.All() {
		if rec.Spec.FullHash() == resp.FullHash && rec.Prefix == resp.Prefix {
			installed = true
		}
	}
	if !installed {
		t.Fatalf("install %s not found in the server store", resp.FullHash)
	}

	// Re-installing the same spec is a store-reuse no-op.
	again, err := cl.Install("libdwarf")
	if err != nil {
		t.Fatal(err)
	}
	if again.SourceBuilt != 0 || again.Reused == 0 {
		t.Fatalf("second install rebuilt: %+v", again)
	}
	st := srv.Stats()
	if st.SourceBuilds != 1 {
		t.Fatalf("source builds = %d, want 1", st.SourceBuilds)
	}
	if st.Install.Requests != 2 || st.Install.Hits != 1 {
		t.Fatalf("install counters = %+v", st.Install)
	}
}

// TestInstallSingleflight is the acceptance test of the tentpole: a
// thundering herd of concurrent clients installing the same spec must
// trigger exactly one cache-miss build, with everyone else blocking on
// the same result.
func TestInstallSingleflight(t *testing.T) {
	_, srv, ts := newDaemon(t)

	const clients = 12
	var wg sync.WaitGroup
	responses := make([]*service.InstallResponse, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := service.NewClient(ts.URL)
			responses[i], errs[i] = cl.Install("mpileaks")
		}(i)
	}
	wg.Wait()

	prefix := ""
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if prefix == "" {
			prefix = responses[i].Prefix
		}
		if responses[i].Prefix != prefix {
			t.Fatalf("client %d prefix %s, others got %s", i, responses[i].Prefix, prefix)
		}
	}
	st := srv.Stats()
	if st.SourceBuilds != 1 {
		t.Fatalf("herd of %d clients triggered %d source builds, want exactly 1", clients, st.SourceBuilds)
	}
	if st.Install.Requests != clients {
		t.Fatalf("install requests = %d, want %d", st.Install.Requests, clients)
	}
	if st.Install.Coalesced+st.Install.Hits == 0 {
		t.Fatalf("no requests coalesced or hit: %+v", st.Install)
	}
}

func TestGracefulShutdown(t *testing.T) {
	s := core.MustNew()
	srv := service.NewServer(service.Config{
		Mirror:      s.Mirror,
		Concretizer: s.Concretizer,
		Builder:     s.Builder,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := service.NewClient("http://" + addr)
	if _, err := cl.Install("libelf"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stats(); err == nil {
		t.Fatal("server still answering after Shutdown")
	}
	// Shutdown on a never-started server is a no-op.
	if err := (&service.Server{}).Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestRequestLog(t *testing.T) {
	s := core.MustNew()
	var buf strings.Builder
	var mu sync.Mutex
	srv := service.NewServer(service.Config{
		Mirror: s.Mirror,
		Log:    &syncWriter{w: &buf, mu: &mu},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/blobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	if !strings.Contains(logged, "GET /v1/blobs 200") {
		t.Fatalf("request log missing entry: %q", logged)
	}
}

type syncWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestRemotePushThenServerSideCacheInstall closes the service loop: a
// build machine pushes archives through the HTTP backend, then a herd
// of clients installs the same spec through the daemon — the leader
// pulls from the now-populated binary cache (zero source builds) and
// everyone else coalesces or reuses.
func TestRemotePushThenServerSideCacheInstall(t *testing.T) {
	_, srv, ts := newDaemon(t)

	// The build machine is a separate site: own store, own filesystem,
	// sharing only the daemon's blob API.
	pusher := core.MustNew(core.WithBuildCacheBackend(service.NewHTTPBackend(ts.URL)))
	res, err := pusher.Install("libdwarf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pusher.BuildCache.PushDAG(pusher.Store, res.Root); err != nil {
		t.Fatal(err)
	}

	const clients = 8
	var wg sync.WaitGroup
	responses := make([]*service.InstallResponse, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = service.NewClient(ts.URL).Install("libdwarf")
		}(i)
	}
	wg.Wait()
	cacheHits := 0
	for i, r := range responses {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if r.SourceBuilt != 0 {
			t.Fatalf("client %d saw %d source builds with a warm binary cache", i, r.SourceBuilt)
		}
		cacheHits += r.CacheHits
	}
	if cacheHits == 0 {
		t.Fatal("no client observed a binary-cache install")
	}
	if st := srv.Stats(); st.SourceBuilds != 0 {
		t.Fatalf("server compiled %d nodes despite the warm cache", st.SourceBuilds)
	}
}

// TestMalformedRequestBodies sends every JSON endpoint each kind of bad
// body. The daemon must refuse all of them before any handler logic
// runs: 400 for a body that is not exactly one JSON value of the
// endpoint's shape, 413 for one over the 1 MiB cap.
func TestMalformedRequestBodies(t *testing.T) {
	_, _, ts := newDaemon(t)
	endpoints := []string{
		"/v1/concretize", "/v1/install", "/v1/jobs", "/v1/leases",
		"/v1/leases/x/complete", "/v1/leases/x/fail", "/v1/gc", "/v1/splice",
	}
	bodies := []struct {
		name, body string
		want       int
	}{
		{"empty", "", http.StatusBadRequest},
		{"truncated", "{", http.StatusBadRequest},
		{"unknown field", `{"no_such_field":1}`, http.StatusBadRequest},
		{"two values", "{}{}", http.StatusBadRequest},
		// "mode" is not a field of any endpoint's body.
		{"install mode", `{"spec":"zlib","mode":"local"}`, http.StatusBadRequest},
		// Valid JSON for every endpoint, but padded past the cap.
		{"oversized", "{" + strings.Repeat(" ", 1<<20) + "}", http.StatusRequestEntityTooLarge},
	}
	for _, ep := range endpoints {
		for _, b := range bodies {
			resp, err := http.Post(ts.URL+ep, "application/json", strings.NewReader(b.body))
			if err != nil {
				t.Fatalf("%s %s: %v", ep, b.name, err)
			}
			text, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != b.want {
				t.Errorf("%s with %s body: status %d (%s), want %d",
					ep, b.name, resp.StatusCode, bytes.TrimSpace(text), b.want)
			}
		}
	}
}

// TestConcretizeReuseRequest covers the daemon's reuse solver: with
// libelf@0.8.12 installed on the daemon, a plain concretization still
// picks the newest version, while "reuse": true answers with the
// installed configuration.
func TestConcretizeReuseRequest(t *testing.T) {
	_, _, ts := newDaemon(t)
	cl := service.NewClient(ts.URL)
	installed, err := cl.Install("libelf@0.8.12")
	if err != nil {
		t.Fatal(err)
	}

	plain, err := cl.Concretize("libelf")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(plain.Spec, "libelf@0.8.13") {
		t.Fatalf("plain concretization = %s, want libelf@0.8.13", plain.Spec)
	}

	resp, err := http.Post(ts.URL+"/v1/concretize", "application/json",
		strings.NewReader(`{"spec":"libelf","reuse":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reused service.ConcretizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&reused); err != nil {
		t.Fatal(err)
	}
	if reused.FullHash != installed.FullHash {
		t.Fatalf("reuse concretization = %s (%s), want the installed %s",
			reused.Spec, reused.FullHash, installed.FullHash)
	}
}

// TestConcurrentConcretizeCoalesces: 64 concurrent identical
// /v1/concretize requests on a cold daemon run the solver once, and all
// of them answer the same configuration. The daemon is given a
// concretizer without a memo cache, so it must install its own.
func TestConcurrentConcretizeCoalesces(t *testing.T) {
	s := core.MustNew()
	s.Concretizer.Cache = nil
	srv := service.NewServer(service.Config{
		Mirror:      s.Mirror,
		Concretizer: s.Concretizer,
		Builder:     s.Builder,
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	if s.Concretizer.Cache == nil {
		t.Fatal("NewServer left the concretizer without a memo cache")
	}

	const n = 64
	cl := service.NewClient(ts.URL)
	resps := make([]*service.ConcretizeResponse, n)
	errs := make([]error, n)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			start.Wait()
			resps[i], errs[i] = cl.Concretize("mpileaks ^mvapich2")
		}()
	}
	start.Done()
	done.Wait()

	for i, resp := range resps {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		dag, err := syntax.DecodeJSON(resp.DAG)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.FullHash != resps[0].FullHash || dag.FullHash() != resp.FullHash {
			t.Errorf("request %d: hash %s (DAG %s), request 0 %s",
				i, resp.FullHash, dag.FullHash(), resps[0].FullHash)
		}
	}
	if got := s.Concretizer.Stats.CacheMisses(); got != 1 {
		t.Errorf("cache misses = %d, want 1", got)
	}
	if got := srv.Stats().Concretize.Hits; got != n-1 {
		t.Errorf("concretize hits = %d, want %d", got, n-1)
	}
}
