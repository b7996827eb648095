package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/buildcache"
	"repro/internal/lifecycle"
	"repro/internal/simfs"
)

// TestTamperedArchiveFailsInstall shows that the install check does not
// pass a corrupted cache silently: a Current configuration whose root
// archive was altered, or re-signed by an untrusted key, counts as a
// failed operation.
func TestTamperedArchiveFailsInstall(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(t *testing.T, w *installW, hash string)
	}{
		{"archive bytes", func(t *testing.T, w *installW, hash string) {
			data, ok, err := w.be.Get(hash + ".spack.json")
			if err != nil || !ok {
				t.Fatalf("archive of %s: ok=%v err=%v", hash, ok, err)
			}
			bad := append([]byte(nil), data...)
			bad[len(bad)/2] ^= 1
			if err := w.be.Put(hash+".spack.json", bad); err != nil {
				t.Fatal(err)
			}
		}},
		{"untrusted signature", func(t *testing.T, w *installW, hash string) {
			// Re-sign the archive's real signed message, so the rogue key is
			// the only thing wrong with the signature.
			sum, ok, err := w.be.Get(hash + ".sha256")
			if err != nil || !ok {
				t.Fatalf("checksum of %s: ok=%v err=%v", hash, ok, err)
			}
			meta, ok, err := w.be.Get(hash + ".meta")
			if err != nil || !ok {
				t.Fatalf("metadata of %s: ok=%v err=%v", hash, ok, err)
			}
			msg := buildcache.SignedMessage(strings.TrimSpace(string(sum)), meta)
			site, ok, err := w.be.Get(hash + ".sig")
			if err != nil || !ok {
				t.Fatalf("signature of %s: ok=%v err=%v", hash, ok, err)
			}
			if err := w.s.signer.VerifySignature(msg, site); err != nil {
				t.Fatalf("the site's signature does not cover the rebuilt message: %v", err)
			}
			rogue, err := lifecycle.OpenKeyring(simfs.New(simfs.TempFS), keysPath)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rogue.Generate("rogue"); err != nil {
				t.Fatal(err)
			}
			sig, err := rogue.Sign(msg)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.be.Put(hash+".sig", sig); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wl, err := newInstall(1)
			if err != nil {
				t.Fatal(err)
			}
			w := wl.(*installW)
			cal, err := newCalibrator()
			if err != nil {
				t.Fatal(err)
			}
			it := w.items[0]
			sched := [][][]item{{{it}}}
			p, err := runPhase(cal, w, sched, 1, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if p.failed != 0 {
				t.Fatalf("untampered install: failed=%d", p.failed)
			}
			tc.tamper(t, w, w.want[it.input].FullHash())
			p, err = runPhase(cal, w, sched, 1, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if p.failed != 1 {
				t.Fatalf("install from a tampered cache: failed=%d, want 1", p.failed)
			}
		})
	}
}

// TestExactCountsRepeat runs every workload twice with the same seed and
// requires each exact per-layer metric to repeat exactly.
func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for name, d := range workloads {
		t.Run(name, func(t *testing.T) {
			var runs [2]map[string]float64
			for i := range runs {
				m, err := measure(name, d, 7, 1, 1, true)
				if err != nil {
					t.Fatal(err)
				}
				if m.base.failed+m.traced.failed != 0 || m.checkErr != nil {
					t.Fatalf("run %d: %d failed operations, check: %v", i, m.base.failed+m.traced.failed, m.checkErr)
				}
				runs[i] = m.layers
			}
			for _, md := range perLayer {
				if md.exact && runs[0][md.name] != runs[1][md.name] {
					t.Errorf("%s: %v then %v", md.name, runs[0][md.name], runs[1][md.name])
				}
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the metrics
// the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	e2e := endToEnd(&phase{ops: 1, blocks: []block{{wall: 1, lat: make([]time.Duration, 1), sLat: make([]time.Duration, 1), speeds: []float64{1}}}}, []setupRun{{dur: 1}})
	if len(doc.EndToEnd) != len(e2e) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark prints %d", len(doc.EndToEnd), len(e2e))
	}
	for i, r := range e2e {
		if doc.EndToEnd[i].Name != r.name || doc.EndToEnd[i].Unit != r.unit {
			t.Errorf("end_to_end[%d] = %s %s, benchmark prints %s %s", i, doc.EndToEnd[i].Name, doc.EndToEnd[i].Unit, r.name, r.unit)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(doc.PerLayer), len(perLayer))
	}
	for i, md := range perLayer {
		if doc.PerLayer[i].Name != md.name || doc.PerLayer[i].Unit != md.unit {
			t.Errorf("per_layer[%d] = %s %s, benchmark prints %s %s", i, doc.PerLayer[i].Name, doc.PerLayer[i].Unit, md.name, md.unit)
		}
	}
}
