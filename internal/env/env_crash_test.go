package env_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/build"
	"repro/internal/compiler"
	"repro/internal/config"
	"repro/internal/env"
	"repro/internal/modules"
	"repro/internal/repo"
	"repro/internal/simfs"
	"repro/internal/store"
)

// The crash tests assemble hosts by hand (instead of core.New) so every
// layer shares one fault-injectable filesystem.

const (
	crashEnvRoot = "/spack/envs"
	crashViewDir = "/spack/envs/dev/view"
)

func crashHost(t *testing.T, fs *simfs.FS) (*env.Host, error) {
	t.Helper()
	st, err := store.New(fs, "/spack/opt", store.SpackLayout{})
	if err != nil {
		return nil, err
	}
	path := repo.NewPath(repo.Builtin())
	cfg := config.New()
	reg := compiler.LLNLRegistry()
	b := build.NewBuilder(st, path, reg)
	b.Config = cfg
	return &env.Host{
		FS: fs, Config: cfg, Repos: path, Compilers: reg,
		Store: st, Builder: b,
		Modules: &modules.Generator{FS: fs, Root: "/spack/share", Kind: modules.KindDotkit},
	}, nil
}

func crashEnv(fs *simfs.FS) (*env.Environment, error) {
	e, err := env.Create(fs, crashEnvRoot, "dev", []string{"libdwarf"})
	if err != nil {
		return nil, err
	}
	e.Manifest.View = &env.View{Path: crashViewDir, Projection: "${PACKAGE}"}
	return e, e.SaveManifest()
}

// crashSnapshot captures everything the transactional guarantee covers:
// the store index (from a freshly opened store), every file under the
// install tree and module root, every view link with its target, and the
// lockfile's bytes — garbage collection reads env lockfiles as roots, so
// the lock must move with the store.
func crashSnapshot(t *testing.T, fs *simfs.FS, st *store.Store) string {
	t.Helper()
	var b strings.Builder
	if lock, err := fs.ReadFile(crashEnvRoot + "/dev/spack.lock"); err == nil {
		fmt.Fprintf(&b, "lock %s\n", lock)
	}
	for _, r := range st.Select(nil) {
		fmt.Fprintf(&b, "rec %s %s explicit=%v %s\n",
			r.Spec.FullHash(), r.Prefix, r.Explicit, store.RecordOrigin(r))
	}
	for _, dir := range []string{"/spack/opt", "/spack/share", crashViewDir} {
		err := fs.Walk(dir, func(p string, isLink bool) error {
			if strings.HasPrefix(p, "/spack/opt/.spack-db") {
				return nil // database shards and journal are the mechanism, not the state
			}
			if isLink {
				tgt, _ := fs.Readlink(p)
				fmt.Fprintf(&b, "lnk %s -> %s\n", p, tgt)
			} else {
				fmt.Fprintf(&b, "file %s\n", p)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("walk %s: %v", dir, err)
		}
	}
	return b.String()
}

// reopen models the next process: load the database from disk and run
// journal recovery, exactly what store.Open does at startup.
func reopen(t *testing.T, fs *simfs.FS) *store.Store {
	t.Helper()
	st, err := store.Open(fs, "/spack/opt", store.SpackLayout{})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	if names, _ := fs.List(st.JournalDir()); len(names) != 0 {
		t.Fatalf("journal not drained after recovery: %v", names)
	}
	return st
}

// TestEnvApplyCrashRecovery injects a fault at every successive filesystem
// operation of `env install` — builds, index mutations, module files and
// view links all in one transaction — and proves the recovered system is
// always exactly the pre- or the post-state, never in between.
func TestEnvApplyCrashRecovery(t *testing.T) {
	// Reference states from clean runs.
	preFS := simfs.New(simfs.TempFS)
	preHost, err := crashHost(t, preFS)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crashEnv(preFS); err != nil {
		t.Fatal(err)
	}
	pre := crashSnapshot(t, preFS, preHost.Store)

	postFS := simfs.New(simfs.TempFS)
	postHost, err := crashHost(t, postFS)
	if err != nil {
		t.Fatal(err)
	}
	ePost, err := crashEnv(postFS)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ePost.Apply(postHost); err != nil {
		t.Fatal(err)
	}
	post := crashSnapshot(t, postFS, postHost.Store)
	if pre == post {
		t.Fatal("pre and post states are identical; the scenario tests nothing")
	}

	sawPre, sawPost := false, false
	for _, op := range []string{"write", "rename", "symlink", "remove", "mkdir"} {
		t.Run(op, func(t *testing.T) {
			for n := 0; ; n++ {
				if n > 5000 {
					t.Fatal("fault sweep did not reach a clean run")
				}
				healthy := simfs.New(simfs.TempFS)
				faulty := healthy.FailAfter(op, n)
				failed := false
				h, err := crashHost(t, faulty)
				if err == nil {
					var e *env.Environment
					if e, err = crashEnv(faulty); err == nil {
						_, err = e.Apply(h)
					}
				}
				failed = err != nil

				st2 := reopen(t, healthy)
				got := crashSnapshot(t, healthy, st2)
				switch got {
				case pre:
					sawPre = true
				case post:
					sawPost = true
				default:
					t.Fatalf("%s fault at op %d: recovered state is neither pre nor post:\n--- got ---\n%s--- pre ---\n%s--- post ---\n%s",
						op, n, got, pre, post)
				}
				if !failed {
					if got != post {
						t.Fatalf("%s at %d: apply succeeded but state is not post", op, n)
					}
					break // fault budget exhausted without tripping: sweep done
				}
			}
		})
	}
	if !sawPre || !sawPost {
		t.Errorf("sweep saw pre=%v post=%v; want both outcomes", sawPre, sawPost)
	}
}

// TestEnvUninstallCrashRecovery is the reverse direction: faults injected
// while a whole environment is being uninstalled (record removals, prefix
// deletions, module-file removals, view pruning as one transaction) must
// leave the recovered system exactly installed or exactly uninstalled.
func TestEnvUninstallCrashRecovery(t *testing.T) {
	// install builds the environment cleanly on a healthy filesystem and
	// returns everything the uninstall needs.
	install := func(t *testing.T, fs *simfs.FS) *env.Host {
		h, err := crashHost(t, fs)
		if err != nil {
			t.Fatal(err)
		}
		e, err := crashEnv(fs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Apply(h); err != nil {
			t.Fatal(err)
		}
		return h
	}

	preFS := simfs.New(simfs.TempFS)
	preHost := install(t, preFS)
	pre := crashSnapshot(t, preFS, preHost.Store)

	postFS := simfs.New(simfs.TempFS)
	postHost := install(t, postFS)
	ePost, err := env.Open(postFS, crashEnvRoot, "dev")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ePost.Uninstall(postHost); err != nil {
		t.Fatal(err)
	}
	post := crashSnapshot(t, postFS, postHost.Store)
	if pre == post {
		t.Fatal("pre and post states are identical; the scenario tests nothing")
	}

	sawPre, sawPost := false, false
	for _, op := range []string{"write", "rename", "symlink", "remove", "mkdir"} {
		t.Run(op, func(t *testing.T) {
			for n := 0; ; n++ {
				if n > 5000 {
					t.Fatal("fault sweep did not reach a clean run")
				}
				healthy := simfs.New(simfs.TempFS)
				h := install(t, healthy)

				// The crashing process sees faults only from here on.
				faulty := healthy.FailAfter(op, n)
				h.FS = faulty
				h.Store.FS = faulty
				h.Modules.FS = faulty
				e, err := env.Open(faulty, crashEnvRoot, "dev")
				if err == nil {
					_, err = e.Uninstall(h)
				}
				failed := err != nil

				st2 := reopen(t, healthy)
				got := crashSnapshot(t, healthy, st2)
				switch got {
				case pre:
					sawPre = true
				case post:
					sawPost = true
				default:
					t.Fatalf("%s fault at op %d: recovered state is neither pre nor post:\n--- got ---\n%s--- pre ---\n%s--- post ---\n%s",
						op, n, got, pre, post)
				}
				if !failed {
					if got != post {
						t.Fatalf("%s at %d: uninstall succeeded but state is not post", op, n)
					}
					break
				}
			}
		})
	}
	if !sawPre || !sawPost {
		t.Errorf("sweep saw pre=%v post=%v; want both outcomes", sawPre, sawPost)
	}
}
