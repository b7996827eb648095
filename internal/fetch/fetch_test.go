package fetch

import (
	"strings"
	"testing"

	"repro/internal/pkg"
	"repro/internal/version"
)

func TestArchiveDeterministic(t *testing.T) {
	a := Archive("libelf", version.Parse("0.8.13"))
	b := Archive("libelf", version.Parse("0.8.13"))
	if string(a) != string(b) {
		t.Error("archives must be deterministic")
	}
	c := Archive("libelf", version.Parse("0.8.12"))
	if string(a) == string(c) {
		t.Error("different versions must differ")
	}
	if len(a) < 1000 {
		t.Errorf("archive too small: %d bytes", len(a))
	}
}

func TestChecksumMatchesArchive(t *testing.T) {
	v := version.Parse("1.0")
	if Checksum("mpileaks", v) != ChecksumOf(Archive("mpileaks", v)) {
		t.Error("Checksum must hash the archive")
	}
	if len(Checksum("mpileaks", v)) != 32 {
		t.Error("MD5 hex must be 32 chars")
	}
}

// TestExtrapolateURL: §3.2.3's URL model, a package's URL template
// rewritten for a version it does not list.
func TestExtrapolateURL(t *testing.T) {
	tmpl := "https://github.com/hpc/mpileaks/releases/download/v1.0/mpileaks-1.0.tar.gz"
	got := pkg.ExtrapolateURL(tmpl, version.Parse("1.0"), version.Parse("2.3"))
	want := "https://github.com/hpc/mpileaks/releases/download/v2.3/mpileaks-2.3.tar.gz"
	if got != want {
		t.Errorf("ExtrapolateURL = %q, want %q", got, want)
	}
	// Same version: unchanged.
	if pkg.ExtrapolateURL(tmpl, version.Parse("1.0"), version.Parse("1.0")) != tmpl {
		t.Error("same-version extrapolation should be identity")
	}
	// Zero old version: unchanged.
	if pkg.ExtrapolateURL(tmpl, version.Version{}, version.Parse("2.0")) != tmpl {
		t.Error("zero old version should be identity")
	}
}

func TestMirrorPublishFetch(t *testing.T) {
	m := NewMirror()
	v := version.Parse("0.8.13")
	m.Publish("libelf", v)
	m.Publish("libelf", v) // duplicate publish is a no-op

	if got := m.Available("libelf"); len(got) != 1 {
		t.Fatalf("Available = %v", got)
	}

	data, err := m.Fetch("libelf", v, Checksum("libelf", v))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("empty archive")
	}
}

func TestMirrorChecksumMismatch(t *testing.T) {
	m := NewMirror()
	v := version.Parse("1.0")
	m.Publish("p", v)
	_, err := m.Fetch("p", v, strings.Repeat("0", 32))
	if err == nil {
		t.Fatal("expected checksum failure")
	}
	fe, ok := err.(*FetchError)
	if !ok || !strings.Contains(fe.Error(), "checksum mismatch") {
		t.Errorf("error = %v", err)
	}
}

func TestMirrorUnpublished(t *testing.T) {
	m := NewMirror()
	if _, err := m.Fetch("ghost", version.Parse("1.0"), ""); err == nil {
		t.Error("unpublished release must fail")
	}
}

func TestMirrorNoChecksumSkipsVerification(t *testing.T) {
	// Bleeding-edge versions unknown to the package have no checksum
	// (§3.2.3); fetch must still work.
	m := NewMirror()
	v := version.Parse("9.9")
	m.Publish("p", v)
	if _, err := m.Fetch("p", v, ""); err != nil {
		t.Errorf("fetch without checksum: %v", err)
	}
}

func TestScrape(t *testing.T) {
	m := NewMirror()
	for _, v := range []string{"1.0", "1.1", "2.0"} {
		m.Publish("p", version.Parse(v))
	}
	known := []version.Version{version.Parse("1.0"), version.Parse("1.1")}
	newer := m.Scrape("p", known)
	if len(newer) != 1 || newer[0].String() != "2.0" {
		t.Errorf("Scrape = %v", newer)
	}
	if got := m.Scrape("p", nil); len(got) != 3 {
		t.Errorf("Scrape with no known = %v", got)
	}
}

func TestAvailableSorted(t *testing.T) {
	m := NewMirror()
	for _, v := range []string{"2.0", "1.0", "1.5"} {
		m.Publish("p", version.Parse(v))
	}
	got := m.Available("p")
	if got[0].String() != "1.0" || got[2].String() != "2.0" {
		t.Errorf("Available = %v", got)
	}
}

func TestExtrapolateURLAlternateSeparators(t *testing.T) {
	// boost-style: dots in the directory, underscores in the file name.
	tmpl := "https://downloads.sourceforge.net/project/boost/boost/1.55.0/boost_1_55_0.tar.bz2"
	got := pkg.ExtrapolateURL(tmpl, version.Parse("1.55.0"), version.Parse("1.59.0"))
	want := "https://downloads.sourceforge.net/project/boost/boost/1.59.0/boost_1_59_0.tar.bz2"
	if got != want {
		t.Errorf("ExtrapolateURL = %q, want %q", got, want)
	}
}
