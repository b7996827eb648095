package service_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/syntax"
)

func TestHTTPBackendRoundTrip(t *testing.T) {
	_, _, ts := newDaemon(t)
	be := service.NewHTTPBackend(ts.URL)

	if ok, err := be.Stat("missing"); err != nil || ok {
		t.Fatalf("Stat(missing) = %v, %v", ok, err)
	}
	if _, found, err := be.Get("missing"); err != nil || found {
		t.Fatalf("Get(missing) = found=%v, %v", found, err)
	}
	payload := []byte("archive payload")
	if err := be.Put("abc.spack.json", payload); err != nil {
		t.Fatal(err)
	}
	if ok, err := be.Stat("abc.spack.json"); err != nil || !ok {
		t.Fatalf("Stat after Put = %v, %v", ok, err)
	}
	data, found, err := be.Get("abc.spack.json")
	if err != nil || !found || string(data) != string(payload) {
		t.Fatalf("Get = %q, %v, %v", data, found, err)
	}
}

// TestRemoteBuildcachePushPull is the deployment the daemon exists
// for: one machine pushes binary archives over HTTP, a second machine
// on another (simulated) filesystem installs the whole DAG from them,
// never compiling.
func TestRemoteBuildcachePushPull(t *testing.T) {
	_, _, ts := newDaemon(t)

	pusher := core.MustNew(core.WithBuildCacheBackend(service.NewHTTPBackend(ts.URL)))
	res, err := pusher.Install("libdwarf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pusher.BuildCache.PushDAG(pusher.Store, res.Root); err != nil {
		t.Fatal(err)
	}

	puller := core.MustNew(
		core.WithBuildCacheBackend(service.NewHTTPBackend(ts.URL)),
		core.WithCachePolicy(build.CacheOnly),
	)
	got, err := puller.Install("libdwarf")
	if err != nil {
		t.Fatal(err)
	}
	if got.CacheHits == 0 {
		t.Fatalf("cache-only install over HTTP reported no cache hits: %+v", got)
	}
	for _, n := range got.Root.TopoOrder() {
		if n.External {
			continue
		}
		rec, ok := puller.Store.Lookup(n)
		if !ok {
			t.Fatalf("%s missing after remote pull", n.Name)
		}
		if rec.Origin != store.OriginBinary {
			t.Fatalf("%s origin = %q, want %q", n.Name, rec.Origin, store.OriginBinary)
		}
	}
}

func TestGetRetries500ThenSucceeds(t *testing.T) {
	payload := []byte("flaky payload")
	sum := sha256.Sum256(payload)
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= 2 {
			http.Error(w, "backend unavailable", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("ETag", `"`+hex.EncodeToString(sum[:])+`"`)
		w.Write(payload)
	}))
	defer ts.Close()

	be := service.NewHTTPBackend(ts.URL)
	data, found, err := be.Get("x")
	if err != nil || !found || string(data) != string(payload) {
		t.Fatalf("Get = %q, %v, %v", data, found, err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (two 503s, one success)", got)
	}
}

func TestGetRetryBudgetExhausted(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, "down for maintenance", http.StatusInternalServerError)
	}))
	defer ts.Close()

	_, _, err := service.NewHTTPBackend(ts.URL).Get("x")
	if err == nil || !strings.Contains(err.Error(), "server said 500") {
		t.Fatalf("err = %v, want persistent 500", err)
	}
	if got := attempts.Load(); got != 4 {
		t.Fatalf("server saw %d attempts, want 4 (1 + 3 retries)", got)
	}
}

func TestGetDoesNotRetryClientErrors(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, "no", http.StatusForbidden)
	}))
	defer ts.Close()

	if _, _, err := service.NewHTTPBackend(ts.URL).Get("x"); err == nil {
		t.Fatal("403 did not surface as an error")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("client retried a 403 (%d attempts)", got)
	}
}

// TestGetTruncatedBodyRefetches models a connection dropped mid-
// transfer: the server promises more bytes than it delivers, the
// client detects the torn payload and re-fetches.
func TestGetTruncatedBodyRefetches(t *testing.T) {
	payload := []byte("the whole archive, all of it")
	sum := sha256.Sum256(payload)
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"`+hex.EncodeToString(sum[:])+`"`)
		if attempts.Add(1) == 1 {
			w.Header().Set("Content-Length", fmt.Sprint(len(payload)))
			w.Write(payload[:len(payload)/2])
			// Returning with Content-Length unmet makes the server
			// abort the connection; the client sees unexpected EOF.
			return
		}
		w.Write(payload)
	}))
	defer ts.Close()

	data, found, err := service.NewHTTPBackend(ts.URL).Get("x")
	if err != nil || !found || string(data) != string(payload) {
		t.Fatalf("Get = %q, %v, %v", data, found, err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("server saw %d attempts, want 2", got)
	}
}

// TestGetETagMismatchRefetches models silent payload corruption: the
// body does not hash to the server's ETag, so the client refuses it
// and re-fetches.
func TestGetETagMismatchRefetches(t *testing.T) {
	payload := []byte("genuine bytes")
	sum := sha256.Sum256(payload)
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"`+hex.EncodeToString(sum[:])+`"`)
		if attempts.Add(1) == 1 {
			w.Write([]byte("corrupted bytes~~"))
			return
		}
		w.Write(payload)
	}))
	defer ts.Close()

	data, found, err := service.NewHTTPBackend(ts.URL).Get("x")
	if err != nil || !found || string(data) != string(payload) {
		t.Fatalf("Get = %q, %v, %v", data, found, err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("server saw %d attempts, want 2", got)
	}
}

func TestGetETagMismatchPersistentFails(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.Header().Set("ETag", `"`+strings.Repeat("0", 64)+`"`)
		w.Write([]byte("never matches"))
	}))
	defer ts.Close()

	_, _, err := service.NewHTTPBackend(ts.URL).Get("x")
	if err == nil || !strings.Contains(err.Error(), "does not match ETag") {
		t.Fatalf("err = %v, want ETag mismatch", err)
	}
	if got := attempts.Load(); got != 4 {
		t.Fatalf("server saw %d attempts, want 4 (1 + 3 retries)", got)
	}
}

func TestPutRetries500ThenSucceeds(t *testing.T) {
	var attempts atomic.Int64
	_, _, real := newDaemon(t)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			http.Error(w, "hiccup", http.StatusBadGateway)
			return
		}
		req, _ := http.NewRequest(r.Method, real.URL+r.URL.Path, r.Body)
		req.Header = r.Header
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
	}))
	defer proxy.Close()

	be := service.NewHTTPBackend(proxy.URL)
	if err := be.Put("retry.bin", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// The payload must have landed on the real daemon after the retry.
	if ok, err := service.NewHTTPBackend(real.URL).Stat("retry.bin"); err != nil || !ok {
		t.Fatalf("Stat after retried Put = %v, %v", ok, err)
	}
}

// TestConcurrentRemotePullsCoalesce is the -race herd test: many
// concurrent clients drive installs of one spec through the daemon
// whose binary cache was populated over HTTP; server-side singleflight
// must collapse them onto a single cache pull and zero source builds.
func TestConcurrentRemotePullsCoalesce(t *testing.T) {
	_, srv, ts := newDaemon(t)

	pusher := core.MustNew(core.WithBuildCacheBackend(service.NewHTTPBackend(ts.URL)))
	res, err := pusher.Install("mpileaks")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pusher.BuildCache.PushDAG(pusher.Store, res.Root); err != nil {
		t.Fatal(err)
	}

	const clients = 16
	var wg sync.WaitGroup
	errs := make([]error, clients)
	hits := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := service.NewClient(ts.URL).Install("mpileaks")
			if err != nil {
				errs[i] = err
				return
			}
			if resp.SourceBuilt != 0 {
				errs[i] = fmt.Errorf("client %d saw %d source builds", i, resp.SourceBuilt)
				return
			}
			hits[i] = resp.CacheHits
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, h := range hits {
		total += h
	}
	if total == 0 {
		t.Fatal("no client observed a binary-cache install")
	}
	st := srv.Stats()
	if st.SourceBuilds != 0 {
		t.Fatalf("warm-cache herd triggered %d source builds", st.SourceBuilds)
	}
	if st.Install.Requests != clients {
		t.Fatalf("install requests = %d, want %d", st.Install.Requests, clients)
	}
	// Concurrent HTTPBackend reads against the same daemon race-test
	// the blob path as well.
	be := service.NewHTTPBackend(ts.URL)
	names, err := be.List()
	if err != nil || len(names) == 0 {
		t.Fatalf("List = %v, %v", names, err)
	}
	var rg sync.WaitGroup
	readErrs := make([]error, len(names))
	for i, name := range names {
		rg.Add(1)
		go func(i int, name string) {
			defer rg.Done()
			if _, found, err := be.Get(name); err != nil || !found {
				readErrs[i] = fmt.Errorf("get %s: found=%v err=%v", name, found, err)
			}
		}(i, name)
	}
	rg.Wait()
	for _, err := range readErrs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestClientStatusOutcomes drives each status the daemon answers with
// through both clients. The blob API and the JSON calls map a status to
// the same outcome; only blob requests retry, and only transient ones.
func TestClientStatusOutcomes(t *testing.T) {
	var mu sync.Mutex
	attempts := map[string]int{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The status to answer with is the path segment that parses as a
		// number; a 400 carries more text than an error may quote.
		code := 0
		for _, seg := range strings.Split(r.URL.Path, "/") {
			if n, err := strconv.Atoi(seg); err == nil {
				code = n
			}
		}
		mu.Lock()
		attempts[r.Method+" "+r.URL.Path]++
		mu.Unlock()
		text := fmt.Sprintf("daemon answered %d", code)
		if code == http.StatusBadRequest {
			text += strings.Repeat(" padding", 1<<10)
		}
		http.Error(w, text, code)
	}))
	defer ts.Close()
	tries := func(req string) int {
		mu.Lock()
		defer mu.Unlock()
		return attempts[req]
	}
	be := service.NewHTTPBackend(ts.URL)
	cl := service.NewClient(ts.URL)

	// 404: the blob API reports absence, not failure — except for Put.
	if data, found, err := be.Get("404"); err != nil || found || data != nil {
		t.Errorf("Get(404) = %q, %v, %v; want absent, no error", data, found, err)
	}
	if found, err := be.Stat("404"); err != nil || found {
		t.Errorf("Stat(404) = %v, %v; want absent, no error", found, err)
	}
	if sum, found, err := be.Sum("404"); err != nil || found || sum != "" {
		t.Errorf("Sum(404) = %q, %v, %v; want absent, no error", sum, found, err)
	}
	if err := be.Delete("404"); err != nil {
		t.Errorf("Delete(404) = %v, want nil", err)
	}
	if err := be.Put("404", []byte("payload")); err == nil {
		t.Error("Put answered 404 succeeded")
	}
	if _, err := cl.Job("404"); err == nil || !strings.Contains(err.Error(), "daemon answered 404") {
		t.Errorf("Job(404) err = %v, want one quoting the server", err)
	}

	// 410 and 409: the lease protocol's sentinels.
	if _, err := cl.Complete("410", time.Second, true); !errors.Is(err, service.ErrLeaseLost) {
		t.Errorf("Complete(410) err = %v, want ErrLeaseLost", err)
	}
	if err := cl.Heartbeat("410"); !errors.Is(err, service.ErrLeaseLost) {
		t.Errorf("Heartbeat(410) err = %v, want ErrLeaseLost", err)
	}
	_, err := cl.Complete("409", time.Second, true)
	if !errors.Is(err, service.ErrVerifyRejected) || !strings.Contains(err.Error(), "daemon answered 409") {
		t.Errorf("Complete(409) err = %v, want ErrVerifyRejected quoting the server", err)
	}

	// 400: permanent, never retried, and the quoted text is bounded.
	if _, _, err := be.Get("400"); err == nil || len(err.Error()) > 4<<10+200 {
		t.Errorf("Get(400) err = %.200v (%d bytes), want a bounded error", err, len(fmt.Sprint(err)))
	}
	if _, err := cl.Job("400"); err == nil || !strings.Contains(err.Error(), "daemon answered 400") {
		t.Errorf("Job(400) err = %.200v, want one quoting the server", err)
	}
	if n := tries("GET /v1/blobs/build_cache/400"); n != 1 {
		t.Errorf("blob 400 made %d attempts, want 1", n)
	}
	if n := tries("GET /v1/jobs/400"); n != 1 {
		t.Errorf("Job 400 made %d attempts, want 1", n)
	}

	// 503: transient. Blob requests spend the whole budget; JSON calls
	// make one attempt.
	if _, _, err := be.Get("503"); err == nil {
		t.Error("Get(503) succeeded")
	}
	if n := tries("GET /v1/blobs/build_cache/503"); n != 4 {
		t.Errorf("blob 503 made %d attempts, want 4 (1 + 3 retries)", n)
	}
	if _, err := cl.Job("503"); err == nil {
		t.Error("Job(503) succeeded")
	}
	if n := tries("GET /v1/jobs/503"); n != 1 {
		t.Errorf("Job 503 made %d attempts, want 1", n)
	}
}

// FuzzDecodeConcretizeResponse holds the client's hand-written decoder of
// the /v1/concretize answer to json.Unmarshal into a ConcretizeResponse.
// Whatever the decoder accepts, json.Unmarshal accepts with the same
// fields, DAG byte for byte. Whatever json.Unmarshal accepts, the decoder
// accepts too, unless a key names a field only up to case ("Spec"), which
// encoding/json reads as that field and the decoder refuses. The seeds
// wrap the spec JSON fuzz seeds in answers.
func FuzzDecodeConcretizeResponse(f *testing.F) {
	text, err := os.ReadFile("../syntax/testdata/json_seeds.txt")
	if err != nil {
		f.Fatal(err)
	}
	for i, expr := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		s := syntax.MustParse(expr)
		q, _ := json.Marshal(s.String())
		f.Add([]byte(fmt.Sprintf(`{"spec":%s,"full_hash":"h%d","dag":%s,"cached":%v}`,
			q, i, syntax.EncodeJSON(s), i%2 == 0)))
	}
	for _, doc := range []string{
		`null`,
		`{"dag":null,"cached":null,"spec":null}`,
		` {"spec":"a\u00e9\n","spec":"b","x":[1,{"y":-0.5e+2}],"dag":[true,false],"dag":"s"} `,
		`{"Spec":"a","full_hash":"h"}`,
		`{"full_hash":"h","cached":1}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := service.DecodeConcretizeResponse(data)
		var want service.ConcretizeResponse
		oracleErr := json.Unmarshal(data, &want)
		switch {
		case err == nil && oracleErr != nil:
			t.Fatalf("decoder accepts what json.Unmarshal refuses (%v):\n%s", oracleErr, data)
		case err != nil && oracleErr == nil && !caseVariantKey(data):
			t.Fatalf("decoder refuses what json.Unmarshal accepts: %v\n%s", err, data)
		case err == nil:
			if got.Spec != want.Spec || got.FullHash != want.FullHash || got.Cached != want.Cached ||
				!bytes.Equal(got.DAG, want.DAG) {
				t.Fatalf("decoder read %+v, json.Unmarshal %+v:\n%s", *got, want, data)
			}
		}
	})
}

// caseVariantKey reports whether data is an object with a key that
// differs from a ConcretizeResponse field name only by case.
func caseVariantKey(data []byte) bool {
	var top map[string]json.RawMessage
	if json.Unmarshal(data, &top) != nil {
		return false
	}
	for key := range top {
		for _, f := range []string{"spec", "full_hash", "dag", "cached"} {
			if key != f && strings.EqualFold(key, f) {
				return true
			}
		}
	}
	return false
}
