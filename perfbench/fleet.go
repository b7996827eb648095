package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/ares"
	"repro/internal/buildcache"
	"repro/internal/concretize"
	"repro/internal/fetch"
	"repro/internal/repo"
	"repro/internal/service"
	"repro/internal/syntax"
)

// fleetW is a warm daemon serving a site: its store holds the Current
// configurations, its memo cache is warm, and it enforces signatures on
// archive uploads. Two clients send a seeded request mix over loopback
// HTTP with keep-alive.
type fleetW struct {
	srv     *service.Server
	conc    []string // the 36 Table 3 configurations
	concFH  []string
	inst    []string // the Current configurations
	instFH  []string
	instPfx []string
	blobs   []blob
	cl      []*fleetClient
	items   []item
	// verifier meters the daemon's signature checks; puts counts the
	// re-uploads sent, so each phase can require one check per upload.
	verifier *meteredVerifier
	puts     atomic.Int64
}

// blob is one signed archive the daemon serves.
type blob struct {
	name string // under build_cache/
	data []byte
	sum  string
}

type fleetClient struct {
	tt    *tracedTransport
	api   *service.Client
	be    *service.HTTPBackend
	trans *http.Transport
}

const (
	fleetConcretize = iota
	fleetInstall
	fleetGet
	fleetPut
)

// One pass is 240 requests: 45% concretize (3 x 36 configurations), 30%
// install (8 x 9 Current configurations), 20% archive GETs and 5%
// re-uploads of signed archives.
const (
	fleetConcRounds = 3
	fleetInstRounds = 8
	fleetGets       = 48
	fleetPuts       = 12
)

func newFleet(seed int64) (workload, error) {
	s, err := newSite(seed, concretize.NewCache(0), ares.Repo(), repo.Builtin())
	if err != nil {
		return nil, err
	}
	mirror := fetch.NewMirror()
	if err := s.push(buildcache.New(buildcache.NewMirrorBackend(mirror))); err != nil {
		return nil, err
	}
	w := &fleetW{conc: tableExprs()}
	for _, expr := range w.conc {
		abstract, err := parse(nil, expr)
		if err != nil {
			return nil, err
		}
		out, err := s.conc.Concretize(abstract)
		if err != nil {
			return nil, fmt.Errorf("concretize %s: %w", expr, err)
		}
		w.concFH = append(w.concFH, out.FullHash())
	}
	i := 0
	for _, e := range ares.MatrixEntries() {
		if e.Config != ares.Current {
			continue
		}
		c := s.current[i]
		i++
		rec, ok := s.store.Lookup(c)
		if !ok {
			return nil, fmt.Errorf("%s not installed on the daemon", c.Name)
		}
		w.inst = append(w.inst, ares.SpecFor(e.Cell, e.Config))
		w.instFH = append(w.instFH, c.FullHash())
		w.instPfx = append(w.instPfx, rec.Prefix)
	}
	for _, name := range mirror.Blobs() {
		rest, ok := strings.CutPrefix(name, "build_cache/")
		if !ok || !strings.HasSuffix(rest, ".spack.json") {
			continue
		}
		data, _ := mirror.Blob(name)
		sum := sha256.Sum256(data)
		w.blobs = append(w.blobs, blob{name: rest, data: data, sum: hex.EncodeToString(sum[:])})
	}
	sort.Slice(w.blobs, func(i, j int) bool { return w.blobs[i].name < w.blobs[j].name })
	if len(w.blobs) < fleetGets+fleetPuts {
		return nil, fmt.Errorf("only %d archives to serve", len(w.blobs))
	}

	w.verifier = &meteredVerifier{inner: s.signer}
	w.srv = service.NewServer(service.Config{
		Mirror:      mirror,
		Concretizer: s.conc,
		Builder:     s.builder,
		Verifier:    w.verifier,
		TrustPolicy: buildcache.TrustEnforce,
	})
	addr, err := w.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	base := "http://" + addr
	for c := 0; c < 2; c++ {
		trans := &http.Transport{MaxIdleConnsPerHost: 2, IdleConnTimeout: time.Minute}
		tt := &tracedTransport{inner: trans}
		hc := &http.Client{Transport: tt}
		be := service.NewHTTPBackend(base)
		be.HTTP = hc
		be.Signer = s.signer
		w.cl = append(w.cl, &fleetClient{tt: tt, api: &service.Client{BaseURL: base, HTTP: hc}, be: be, trans: trans})
	}
	w.items = fleetCorpus(len(w.conc), len(w.inst), len(w.blobs))
	return w, nil
}

// fleetCorpus lays out one pass. Each Current configuration is installed
// by one client only, so two clients never ask for the same install at
// once and coalescing, which would make the byte counters depend on
// timing, cannot happen. The other requests balance the two clients.
// Archive targets are spread evenly over the sorted archive list, so the
// mix does not depend on the seed.
func fleetCorpus(nConc, nInst, nBlobs int) []item {
	var out []item
	load := [2]int{}
	for r := 0; r < fleetInstRounds; r++ {
		for i := 0; i < nInst; i++ {
			out = append(out, item{kind: fleetInstall, input: i, client: i % 2})
			load[i%2]++
		}
	}
	var rest []item
	for r := 0; r < fleetConcRounds; r++ {
		for i := 0; i < nConc; i++ {
			rest = append(rest, item{kind: fleetConcretize, input: i})
		}
	}
	for j := 0; j < fleetGets; j++ {
		rest = append(rest, item{kind: fleetGet, input: j * nBlobs / fleetGets})
	}
	for j := 0; j < fleetPuts; j++ {
		rest = append(rest, item{kind: fleetPut, input: (j*nBlobs + nBlobs/2) / fleetPuts})
	}
	for _, it := range rest {
		it.client = 0
		if load[1] < load[0] {
			it.client = 1
		}
		load[it.client]++
		out = append(out, it)
	}
	return out
}

func (w *fleetW) kinds() []string { return []string{"concretize", "install", "blob_get", "blob_put"} }
func (w *fleetW) clients() int    { return len(w.cl) }
func (w *fleetW) corpus() []item  { return w.items }

func (w *fleetW) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.srv.Shutdown(ctx) // the fixture is being dropped; a slow drain changes nothing measured
	for _, c := range w.cl {
		c.trans.CloseIdleConnections()
	}
}

func (w *fleetW) do(ot *opTrace, it item) (func() error, error) {
	c := w.cl[it.client]
	c.tt.ot = ot
	switch it.kind {
	case fleetConcretize:
		resp, err := c.api.Concretize(w.conc[it.input])
		if err != nil {
			return nil, err
		}
		sp := ot.begin("syntax.decode_json")
		dag, err := syntax.DecodeJSON(resp.DAG)
		ot.end(sp)
		if err != nil {
			return nil, err
		}
		return func() error {
			want := w.concFH[it.input]
			if resp.FullHash != want || dag.FullHash() != want {
				return fmt.Errorf("concretize %s: hash %s (dag %s), want %s",
					w.conc[it.input], resp.FullHash, dag.FullHash(), want)
			}
			return nil
		}, nil
	case fleetInstall:
		resp, err := c.api.Install(w.inst[it.input])
		if err != nil {
			return nil, err
		}
		return func() error {
			if resp.FullHash != w.instFH[it.input] || resp.Prefix != w.instPfx[it.input] {
				return fmt.Errorf("install %s: %s at %s, want %s at %s", w.inst[it.input],
					resp.FullHash, resp.Prefix, w.instFH[it.input], w.instPfx[it.input])
			}
			if resp.SourceBuilt != 0 {
				return fmt.Errorf("install %s built %d nodes from source", w.inst[it.input], resp.SourceBuilt)
			}
			return nil
		}, nil
	case fleetGet:
		b := w.blobs[it.input]
		data, ok, err := c.be.Get(b.name)
		if err != nil {
			return nil, err
		}
		return func() error {
			sum := sha256.Sum256(data)
			if !ok || hex.EncodeToString(sum[:]) != b.sum {
				return fmt.Errorf("get %s: found=%v, digest does not match the pushed archive", b.name, ok)
			}
			return nil
		}, nil
	default:
		// The daemon verifies the signature before it accepts the upload;
		// afterPhase checks that it did.
		b := w.blobs[it.input]
		w.puts.Add(1)
		err := c.be.Put(b.name, b.data)
		return func() error { return nil }, err
	}
}

func (w *fleetW) counters() map[string]float64 {
	st := w.srv.Stats()
	var in, out int64
	for _, e := range []service.EndpointStats{st.Blobs, st.Concretize, st.Install, st.Jobs, st.Leases, st.Other} {
		in += e.BytesIn
		out += e.BytesOut
	}
	return map[string]float64{
		"conc_requests": float64(st.Concretize.Requests),
		"conc_hits":     float64(st.Concretize.Hits),
		"inst_requests": float64(st.Install.Requests),
		"inst_hits":     float64(st.Install.Hits),
		"coalesced":     float64(st.Install.Coalesced),
		"bytes_in":      float64(in),
		"bytes_out":     float64(out),
		"source_builds": float64(st.SourceBuilds),
		"puts":          float64(w.puts.Load()),
		"verifies":      float64(w.verifier.calls.Load()),
	}
}

// afterPhase checks that the daemon built nothing from source and
// verified the signature of every re-upload.
func (w *fleetW) afterPhase(d map[string]float64) error {
	if d["source_builds"] != 0 {
		return fmt.Errorf("daemon ran %v source builds", d["source_builds"])
	}
	if d["verifies"] != d["puts"] {
		return fmt.Errorf("daemon checked %v signatures for %v re-uploads", d["verifies"], d["puts"])
	}
	return nil
}

func (w *fleetW) layers(p *phase) map[string]float64 {
	d := p.delta
	return map[string]float64{
		"service.concretize_ms":     ms(median(p.byKind[fleetConcretize])),
		"service.install_ms":        ms(median(p.byKind[fleetInstall])),
		"service.blob_get_ms":       ms(median(p.byKind[fleetGet])),
		"service.blob_put_ms":       ms(median(p.byKind[fleetPut])),
		"service.roundtrip_ms":      p.layerMS("service.roundtrip"),
		"service.decode_ms":         p.layerMS("service.decode"),
		"syntax.decode_json_ms":     p.layerMS("syntax.decode_json"),
		"service.memo_hit_ratio":    ratio(d["conc_hits"], d["conc_requests"]),
		"service.install_hit_ratio": ratio(d["inst_hits"], d["inst_requests"]),
		"service.coalesced":         d["coalesced"],
		"service.bytes_in_per_op":   d["bytes_in"] / float64(p.ops),
		"service.bytes_out_per_op":  d["bytes_out"] / float64(p.ops),
		"service.source_builds":     d["source_builds"],
	}
}
