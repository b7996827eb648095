package lifecycle_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/simfs"
)

// TestGCConcurrentInstallRace races a destructive GC sweep against a
// source build whose DAG overlaps the collectable set. The store's
// lifecycle lock serializes the sweep against in-flight install
// transactions and the builder's whole-DAG pin keeps mid-flight nodes
// out of the live-set computation, so whichever interleaving the
// scheduler picks, the build's closure must be fully installed and
// intact afterward. Run under -race this doubles as the locking proof.
func TestGCConcurrentInstallRace(t *testing.T) {
	for i := 0; i < 8; i++ {
		m := mustMachine(t, simfs.New(simfs.TempFS))
		// Seed a demoted DAG: libdwarf and libelf are collectable the
		// moment the sweep starts, and exactly what the dyninst build
		// wants to reuse (or re-install) mid-flight.
		seed := m.install(t, "libdwarf")
		m.Store.MarkImplicit(seed)
		concrete := m.concretize(t, "dyninst")

		var wg sync.WaitGroup
		errs := make(chan error, 2)
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, err := m.Builder.Build(concrete)
			errs <- err
		}()
		go func() {
			defer wg.Done()
			_, err := m.gc().Run(false)
			errs <- err
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}

		for _, n := range concrete.TopoOrder() {
			if n.External {
				continue
			}
			rec, ok := m.Store.Lookup(n)
			if !ok {
				t.Fatalf("iteration %d: %s missing after concurrent gc", i, n.Name)
			}
			if exists, _ := m.FS.Stat(rec.Prefix); !exists {
				t.Fatalf("iteration %d: %s prefix collected out from under the build", i, n.Name)
			}
			if _, err := m.Store.ReadProvenance(rec.Prefix); err != nil {
				t.Fatalf("iteration %d: %s provenance unreadable: %v", i, n.Name, err)
			}
		}
		if names, _ := m.FS.List(m.Store.JournalDir()); len(names) != 0 {
			t.Fatalf("iteration %d: journal not drained: %v", i, names)
		}
		// A quiescent follow-up sweep must keep the build's closure: the
		// explicit dyninst root anchors everything it linked against.
		res, err := m.gc().Run(false)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range concrete.TopoOrder() {
			if n.External {
				continue
			}
			if _, ok := m.Store.Lookup(n); !ok {
				t.Fatalf("iteration %d: follow-up gc collected live %s (swept %d records)",
					i, n.Name, res.Records)
			}
		}
	}
}

// TestKeyringVerifyConcurrentWithTrust runs eight verifiers against one
// keyring while another goroutine adds and trusts peer keys. The
// Ed25519 check runs outside the keyring lock, so under -race this is
// the proof that verification reads nothing the lock guards. The site's
// own signature verifies throughout; a peer's fails only as unknown or
// untrusted until it is added and trusted, never as invalid.
func TestKeyringVerifyConcurrentWithTrust(t *testing.T) {
	const msg = "deadbeef"
	ring := mustKeyring(t, simfs.New(simfs.TempFS))
	if _, err := ring.Generate("site"); err != nil {
		t.Fatal(err)
	}
	siteSig, err := ring.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	type peer struct {
		name string
		pub  []byte
		sig  []byte
	}
	peers := make([]peer, 8)
	for i := range peers {
		other := mustKeyring(t, simfs.New(simfs.TempFS))
		name := fmt.Sprintf("peer-%d", i)
		pub, err := other.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := other.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = peer{name, pub, sig}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 9)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, p := range peers {
			if err := ring.Add(p.name, p.pub); err != nil {
				errs <- err
				return
			}
			if err := ring.Trust(p.name); err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				if err := ring.VerifySignature(msg, siteSig); err != nil {
					errs <- fmt.Errorf("site signature: %w", err)
					return
				}
				for _, p := range peers {
					err := ring.VerifySignature(msg, p.sig)
					if err != nil && !strings.Contains(err.Error(), "not in the keyring") &&
						!strings.Contains(err.Error(), "is not trusted") {
						errs <- fmt.Errorf("%s: %w", p.name, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, p := range peers {
		if err := ring.VerifySignature(msg, p.sig); err != nil {
			t.Errorf("%s after Add and Trust: %v", p.name, err)
		}
	}
}
