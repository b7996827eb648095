package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/buildcache"
	"repro/internal/jsonenc"
	"repro/internal/sched"
)

// cachePrefix namespaces buildcache archives among the daemon's blobs,
// matching buildcache.MirrorBackend's build_cache/ layout so one mirror
// serves local and remote pullers the same bytes.
const cachePrefix = "build_cache/"

// Blob requests retry a transient failure up to blobRetries times beyond
// the first attempt, waiting blobBackoff before the first retry and
// doubling per attempt. JSON calls never retry: their endpoints are not
// all idempotent.
const (
	blobRetries = 3
	blobBackoff = 10 * time.Millisecond
)

// sharedTransport is the connection pool every HTTPBackend and Client
// in the process shares by default. A build farm runs many workers per
// host, each hammering the same daemon with small blob and lease
// requests; per-host keep-alive slots sized for that herd mean steady
// state reuses warm connections instead of dialing fresh ones under
// load.
var sharedTransport = &http.Transport{
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 64,
	IdleConnTimeout:     90 * time.Second,
}

// sharedHTTPClient is the default client over sharedTransport.
var sharedHTTPClient = &http.Client{Transport: sharedTransport}

var jsonHeader = http.Header{"Content-Type": {"application/json"}}

// errNotFound marks a 404: the named blob, job or lease does not exist.
var errNotFound = errors.New("not found")

// Lease-protocol sentinel errors, mapped from the daemon's statuses so
// a worker can branch without parsing message text.
var (
	// ErrLeaseLost: the lease expired and the node was reclaimed (410).
	ErrLeaseLost = errors.New("service: lease lost")
	// ErrVerifyRejected: the daemon could not verify the pushed archive
	// against its recorded SHA-256, and refused the completion (409).
	ErrVerifyRejected = errors.New("service: archive verification rejected completion")
)

// statusError is a non-2xx answer. It carries the start of the
// server's text and unwraps to the sentinel its status maps to.
type statusError struct {
	method, path string
	code         int
	text         []byte
}

func (e *statusError) Error() string {
	return fmt.Sprintf("service: %s %s: server said %d %s: %s",
		e.method, e.path, e.code, http.StatusText(e.code), e.text)
}

func (e *statusError) Unwrap() error {
	switch e.code {
	case http.StatusNotFound:
		return errNotFound
	case http.StatusConflict:
		return ErrVerifyRejected
	case http.StatusGone:
		return ErrLeaseLost
	}
	return nil
}

// transientError marks a failure worth retrying: the request may
// succeed on a healthy attempt (network blip, 5xx, torn payload).
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

func transient(format string, args ...any) error {
	return &transientError{err: fmt.Errorf(format, args...)}
}

// Client drives the daemon's JSON endpoints — what a remote spack-go
// or a build-farm worker uses to concretize and install through the
// service.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://cache.example.com:8587".
	BaseURL string
	// HTTP is the client used for every request; nil means a
	// process-wide client over a shared keep-alive pool.
	HTTP *http.Client
}

// NewClient points a client at a daemon root URL.
func NewClient(base string) *Client {
	return &Client{BaseURL: strings.TrimSuffix(base, "/")}
}

// do sends one request and maps the response status onto an outcome.
// A 2xx returns the response, which the caller must drain. A network
// error or a 5xx is transient. A 404 wraps errNotFound, a 409
// ErrVerifyRejected and a 410 ErrLeaseLost; any other status is a
// permanent error. Every error carries up to 4 KiB of the server's text.
func (c *Client) do(method, path string, body []byte, hdr http.Header) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	hc := c.HTTP
	if hc == nil {
		hc = sharedHTTPClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, transient("service: %s %s: %w", method, path, err)
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp, nil
	}
	text, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	drain(resp)
	se := &statusError{method: method, path: path, code: resp.StatusCode, text: bytes.TrimSpace(text)}
	if se.code >= 500 {
		return nil, &transientError{err: se}
	}
	return nil, se
}

// call sends in as a JSON body (nil sends none) and decodes the 2xx
// answer into a fresh T.
func call[T any](c *Client, method, path string, in any) (*T, error) {
	var body []byte
	var hdr http.Header
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return nil, err
		}
		hdr = jsonHeader
	}
	resp, err := c.do(method, path, body, hdr)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	out := new(T)
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return nil, fmt.Errorf("service: %s %s: decode: %w", method, path, err)
	}
	return out, nil
}

// drain discards and closes a response body so the connection is
// reusable.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// Concretize resolves an abstract spec expression on the server. It is
// the one JSON call read by hand: the body is read once, in one
// allocation when its length is declared, and the answer's DAG is a
// validated sub-slice of it, for syntax.DecodeJSON to restore.
func (c *Client) Concretize(expr string) (*ConcretizeResponse, error) {
	const path = "/v1/concretize"
	body := append(jsonenc.String([]byte(`{"spec":`), expr), '}')
	resp, err := c.do(http.MethodPost, path, body, jsonHeader)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	var data []byte
	if n := resp.ContentLength; n >= 0 && n <= maxJSONBody {
		data = make([]byte, n)
		_, err = io.ReadFull(resp.Body, data)
	} else {
		data, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		return nil, fmt.Errorf("service: POST %s: read: %w", path, err)
	}
	out, err := decodeConcretizeResponse(data)
	if err != nil {
		return nil, fmt.Errorf("service: POST %s: decode: %w", path, err)
	}
	return out, nil
}

// concretizeFields are ConcretizeResponse's JSON keys, in field order.
var concretizeFields = []string{"spec", "full_hash", "dag", "cached"}

// decodeConcretizeResponse decodes a /v1/concretize answer as
// json.Unmarshal would into a ConcretizeResponse: unknown keys skipped, a
// repeated key's last value kept, null leaving a field unset (and read as
// the raw "null" for DAG). A key matching a field name only up to case is
// an error (see jsonenc.Reader.Field). DAG is a sub-slice of data.
func decodeConcretizeResponse(data []byte) (*ConcretizeResponse, error) {
	out := new(ConcretizeResponse)
	r := jsonenc.NewReader(data)
	if !r.Null() && r.Object() {
		for key, ok := r.Key(); ok; key, ok = r.Key() {
			switch f := r.Field(key, concretizeFields); {
			case f < 0:
				r.Skip()
			case f == 2: // dag
				out.DAG = r.Raw()
			case r.Null():
			case f == 0: // spec
				out.Spec = string(r.Str())
			case f == 1: // full_hash
				out.FullHash = string(r.Str())
			default: // cached
				out.Cached = r.Bool()
			}
		}
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return out, nil
}

// Install asks the server to install a spec expression; concurrent
// requests for the same configuration coalesce server-side onto one
// build.
func (c *Client) Install(expr string) (*InstallResponse, error) {
	return call[InstallResponse](c, http.MethodPost, "/v1/install", ConcretizeRequest{Spec: expr})
}

// Splice asks the daemon to rewire an installed configuration onto an
// already-installed replacement dependency without rebuilding;
// concurrent requests for the same rewiring coalesce server-side onto
// one transaction.
func (c *Client) Splice(req SpliceRequest) (*SpliceResponse, error) {
	return call[SpliceResponse](c, http.MethodPost, "/v1/splice", req)
}

// Keys fetches the daemon's public signing keys (`buildcache keys
// fetch`).
func (c *Client) Keys() ([]KeyInfo, error) {
	keys, err := call[[]KeyInfo](c, http.MethodGet, "/v1/keys", nil)
	if err != nil {
		return nil, err
	}
	return *keys, nil
}

// GC asks the daemon to run a garbage-collection sweep over its store
// and mirror cache.
func (c *Client) GC(dryRun bool) (*GCResponse, error) {
	return call[GCResponse](c, http.MethodPost, "/v1/gc", GCRequest{DryRun: dryRun})
}

// Stats fetches the daemon's counter snapshot.
func (c *Client) Stats() (*Stats, error) {
	return call[Stats](c, http.MethodGet, "/v1/stats", nil)
}

// SubmitJob submits a spec expression as a scheduler job; the daemon
// concretizes it and queues the non-prebuilt DAG nodes.
func (c *Client) SubmitJob(expr string) (*sched.JobStatus, error) {
	return call[sched.JobStatus](c, http.MethodPost, "/v1/jobs", ConcretizeRequest{Spec: expr})
}

// Job polls a job's status.
func (c *Client) Job(id string) (*sched.JobStatus, error) {
	return call[sched.JobStatus](c, http.MethodGet, "/v1/jobs/"+id, nil)
}

// Lease claims a ready DAG node for a named worker. A nil Lease with
// Empty=false means nothing is ready right now (poll again); Empty=true
// means no queued work remains at all.
func (c *Client) Lease(worker string) (*LeaseResponse, error) {
	return call[LeaseResponse](c, http.MethodPost, "/v1/leases", LeaseRequest{Worker: worker})
}

// Heartbeat extends a lease's TTL. ErrLeaseLost reports the node was
// already reclaimed.
func (c *Client) Heartbeat(leaseID string) error {
	_, err := call[struct{}](c, http.MethodPost, "/v1/leases/"+leaseID+"/heartbeat", struct{}{})
	return err
}

// Complete reports a node built and its archive pushed; the daemon
// verifies the archive before unlocking dependents. Duplicate=true
// means the node was already built (idempotent). ErrVerifyRejected
// means the archive is missing or corrupt and the node was re-queued.
func (c *Client) Complete(leaseID string, virtual time.Duration, sourceBuilt bool) (duplicate bool, err error) {
	out, err := call[CompleteResponse](c, http.MethodPost, "/v1/leases/"+leaseID+"/complete", CompleteRequest{
		VirtualMS:   float64(virtual) / float64(time.Millisecond),
		SourceBuilt: sourceBuilt,
	})
	if err != nil {
		return false, err
	}
	return out.Duplicate, nil
}

// Fail gives a leased node back for re-lease (bounded by the daemon's
// max-attempts budget).
func (c *Client) Fail(leaseID, reason string) error {
	_, err := call[struct{}](c, http.MethodPost, "/v1/leases/"+leaseID+"/fail", FailRequest{Reason: reason})
	return err
}

// HTTPBackend implements buildcache.Backend over a daemon's blob API,
// so `buildcache push|pull` and the cache-first builder work against a
// remote service unchanged. Gets validate the payload against the
// server's SHA-256 ETag, existence checks are HEADs, and transient
// failures (network errors, 5xx, truncated or mismatched bodies) retry
// with bounded exponential backoff.
type HTTPBackend struct {
	// Client carries the daemon root and the HTTP client; every blob
	// request goes through its round trip.
	Client
	// Signer, when set, attaches a detached signature over each uploaded
	// archive's SHA-256 as an X-Spack-Signature header, so a daemon
	// enforcing a trust policy accepts the push. Only archive payloads
	// (*.spack.json) are signed — sidecars ride the archive's trust.
	Signer buildcache.Signer
}

// NewHTTPBackend points a backend at a daemon root URL.
func NewHTTPBackend(base string) *HTTPBackend {
	return &HTTPBackend{Client: *NewClient(base)}
}

// blobPath is the request path of a named buildcache blob.
func blobPath(name string) string {
	return "/v1/blobs/" + escapePath(cachePrefix+name)
}

// escapePath escapes a blob name for a URL path segment by segment, so
// names namespaced with "/" (build_cache/…) keep their structure.
func escapePath(name string) string {
	segs := strings.Split(name, "/")
	for i, s := range segs {
		segs[i] = url.PathEscape(s)
	}
	return strings.Join(segs, "/")
}

// blob runs one blob request, retrying transient failures within the
// blobRetries budget. read, when set, consumes each 2xx response and may
// itself fail transiently (a truncated or mismatched payload).
func (b *HTTPBackend) blob(method, path string, body []byte, hdr http.Header, read func(*http.Response) error) error {
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			// Up to +50% jitter, so a herd of workers tripping over the
			// same failure does not retry in lockstep.
			d := blobBackoff << (attempt - 1)
			time.Sleep(d + rand.N(d/2+1))
		}
		resp, err := b.do(method, path, body, hdr)
		if err == nil {
			if read != nil {
				err = read(resp)
			}
			drain(resp)
		}
		var te *transientError
		if err == nil || !errors.As(err, &te) || attempt == blobRetries {
			return err
		}
	}
}

// Put uploads a payload with its SHA-256 declared, so the server
// rejects (rather than stores) bytes torn in transit. Archive payloads
// are additionally signed when a Signer is wired.
func (b *HTTPBackend) Put(name string, data []byte) error {
	sum := sha256.Sum256(data)
	sumHex := hex.EncodeToString(sum[:])
	hdr := http.Header{
		"Content-Type":     {"application/octet-stream"},
		"X-Content-Sha256": {sumHex},
	}
	if b.Signer != nil && strings.HasSuffix(name, ".spack.json") {
		sig, err := b.Signer.Sign(sumHex)
		if err != nil {
			return fmt.Errorf("service: sign %s: %w", name, err)
		}
		if sig != nil {
			hdr.Set("X-Spack-Signature", base64.StdEncoding.EncodeToString(sig))
		}
	}
	return b.blob(http.MethodPut, blobPath(name), data, hdr, nil)
}

// Get downloads a payload and verifies it against the server's ETag; a
// mismatch (or a truncated body) is treated as transient and re-fetched
// within the retry budget.
func (b *HTTPBackend) Get(name string) ([]byte, bool, error) {
	var data []byte
	err := b.blob(http.MethodGet, blobPath(name), nil, nil, func(resp *http.Response) error {
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			// A body cut short (connection dropped, Content-Length
			// unmet) surfaces here; the payload cannot be trusted.
			return transient("service: get %s: truncated body: %w", name, err)
		}
		if etag := strings.Trim(resp.Header.Get("ETag"), `"`); etag != "" {
			sum := sha256.Sum256(body)
			if got := hex.EncodeToString(sum[:]); got != etag {
				return transient("service: get %s: payload sha256 %s does not match ETag %s", name, got, etag)
			}
		}
		data = body
		return nil
	})
	if errors.Is(err, errNotFound) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// head asks for a blob's existence and ETag with a HEAD — no payload
// moves. A missing blob is not an error.
func (b *HTTPBackend) head(name string) (etag string, found bool, err error) {
	err = b.blob(http.MethodHead, blobPath(name), nil, nil, func(resp *http.Response) error {
		etag = strings.Trim(resp.Header.Get("ETag"), `"`)
		return nil
	})
	if errors.Is(err, errNotFound) {
		return "", false, nil
	}
	return etag, err == nil, err
}

// Stat asks for existence with a HEAD.
func (b *HTTPBackend) Stat(name string) (bool, error) {
	_, found, err := b.head(name)
	return found, err
}

// Sum answers a checksum query from the server's SHA-256 ETag via a
// HEAD — no payload moves and no re-hash (buildcache.Summer).
func (b *HTTPBackend) Sum(name string) (string, bool, error) {
	sum, found, err := b.head(name)
	return sum, found && sum != "", err
}

// List returns the archive names under the daemon's build_cache/
// namespace, sorted (the server lists blobs sorted).
func (b *HTTPBackend) List() ([]string, error) {
	var names []string
	err := b.blob(http.MethodGet, "/v1/blobs", nil, nil, func(resp *http.Response) error {
		var infos []BlobInfo
		if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
			return transient("service: list: decode: %w", err)
		}
		for _, info := range infos {
			if rest, ok := strings.CutPrefix(info.Name, cachePrefix); ok {
				names = append(names, rest)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return names, nil
}

// Delete removes a blob; a missing name is a no-op, matching the local
// backends.
func (b *HTTPBackend) Delete(name string) error {
	err := b.blob(http.MethodDelete, blobPath(name), nil, nil, nil)
	if errors.Is(err, errNotFound) {
		return nil
	}
	return err
}
