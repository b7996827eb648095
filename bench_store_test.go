// Store benchmarks (run via `make bench-store` at -cpu 8 → BENCH_store.json):
//
//	BenchmarkStoreContention/wN — N concurrent builders each installing
//	    distinct specs into one store and persisting the database after
//	    every install (real Spack's discipline). The lock-striped index
//	    rewrites only the dirty hash-prefix shard on each Save, so a
//	    builder's cost stays O(shard) instead of O(records).
//	BenchmarkStoreLookupContention/wN — the executor-style read side: N
//	    workers hammering IsInstalled/Lookup on a populated store. Reads
//	    take per-stripe RLocks and proceed in parallel.
//
// cmd/benchjson derives store_installs_per_sec_w8 from the contention
// leg; its acceptance bar is an absolute floor of 2000 installs/s at 8
// workers, which whole-database saves or one global lock would miss.
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/simfs"
	"repro/internal/spec"
	"repro/internal/store"
)

// storePoolSize is how many distinct configurations the contention
// workload installs. Big enough that an O(records) save would show, small
// enough for quick iterations.
const storePoolSize = 64

var (
	storePoolOnce sync.Once
	storePool     []*spec.Spec
)

// storeSpecPool concretizes storePoolSize distinct packages once and
// reuses the concrete DAG roots across iterations (the store only reads
// them).
func storeSpecPool(b *testing.B) []*spec.Spec {
	storePoolOnce.Do(func() {
		path := fig8Path()
		c := concretize.New(path, config.New(), compiler.LLNLRegistry())
		names := path.Names()
		if len(names) > storePoolSize {
			names = names[:storePoolSize]
		}
		for _, name := range names {
			out, err := c.Concretize(spec.New(name))
			if err != nil {
				panic(fmt.Sprintf("store bench pool: %s: %v", name, err))
			}
			storePool = append(storePool, out)
		}
	})
	if len(storePool) == 0 {
		b.Fatal("store bench pool failed to build")
	}
	return storePool
}

var storeWorkerCounts = []int{1, 2, 4, 8}

// BenchmarkStoreContention is the concurrent-builder workload: workers
// split the spec pool, and each install is followed by dependency probes
// and a database Save — the §3.4.2 store under the access pattern the
// parallel executor produces.
func BenchmarkStoreContention(b *testing.B) {
	pool := storeSpecPool(b)
	payload := []byte("simulated install payload")
	for _, workers := range storeWorkerCounts {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fs := simfs.New(simfs.TempFS)
				st, err := store.New(fs, "/spack/opt", store.SpackLayout{})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()

				errCh := make(chan error, workers)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					w := w
					wg.Add(1)
					go func() {
						defer wg.Done()
						for j := w; j < len(pool); j += workers {
							s := pool[j]
							if _, _, err := st.Install(s, true, func(prefix string) error {
								return st.FS.WriteFile(prefix+"/payload", payload)
							}); err != nil {
								errCh <- err
								return
							}
							// Executor-style probes: is my dependency
							// installed yet?
							st.IsInstalled(pool[(j*7+1)%len(pool)])
							st.IsInstalled(pool[(j*13+3)%len(pool)])
							// Persist after every install, as real
							// builders must for crash recovery.
							if err := st.Save(); err != nil {
								errCh <- err
								return
							}
						}
					}()
				}
				wg.Wait()
				close(errCh)
				for err := range errCh {
					b.Fatal(err)
				}
				if st.Len() != len(pool) {
					b.Fatalf("store holds %d of %d records", st.Len(), len(pool))
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(pool)), "installs")
			b.ReportMetric(
				float64(len(pool))*float64(b.N)/b.Elapsed().Seconds(),
				"installs/sec")
		})
	}
}

// BenchmarkStoreLookupContention measures the read side alone: a
// populated store probed concurrently, the hot path of `spack find`, view
// refreshes and executor reuse checks.
func BenchmarkStoreLookupContention(b *testing.B) {
	pool := storeSpecPool(b)
	const probesPerWorker = 2048
	for _, workers := range storeWorkerCounts {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			fs := simfs.New(simfs.TempFS)
			st, err := store.New(fs, "/spack/opt", store.SpackLayout{})
			if err != nil {
				b.Fatal(err)
			}
			for _, s := range pool {
				if _, _, err := st.Install(s, false, func(string) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					w := w
					wg.Add(1)
					go func() {
						defer wg.Done()
						for j := 0; j < probesPerWorker; j++ {
							if !st.IsInstalled(pool[(w+j)%len(pool)]) {
								b.Error("probe missed an installed spec")
								return
							}
						}
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			total := float64(workers) * probesPerWorker
			b.ReportMetric(total*float64(b.N)/b.Elapsed().Seconds(), "lookups/sec")
		})
	}
}
