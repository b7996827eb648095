package buildcache_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"

	"repro/internal/buildcache"
)

// damagedArchives pushes libdwarf and returns its archive bytes plus
// damaged variants of them, each of which the decoder must reject.
func damagedArchives(t testing.TB) (payload []byte, damaged map[string][]byte) {
	t.Helper()
	mirror, _, concrete := pushedMirror(t, "libdwarf")
	payload, ok := mirror.Blob(archiveBlob(concrete.FullHash()))
	if !ok {
		t.Fatal("archive blob missing")
	}
	ar, err := buildcache.DecodeArchive(payload)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := json.Marshal(ar)
	if err != nil {
		t.Fatal(err)
	}
	magic := payload[:bytes.IndexByte(payload, '\n')+1]
	bodies := 0
	for _, f := range ar.Files {
		bodies += len(f.Data)
	}
	body := payload[len(payload)-bodies:]
	frame := func(magic []byte, manifestLen uint64, manifest, body []byte) []byte {
		out := binary.AppendUvarint(append([]byte(nil), magic...), manifestLen)
		return append(append(out, manifest...), body...)
	}
	withFile0 := func(size int) []byte {
		saved := ar.Files[0].Size
		ar.Files[0].Size = size
		defer func() { ar.Files[0].Size = saved }()
		m, err := json.Marshal(ar)
		if err != nil {
			t.Fatal(err)
		}
		return frame(magic, uint64(len(m)), m, body)
	}
	indented, err := json.MarshalIndent(ar, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return payload, map[string][]byte{
		"JSON document, no magic":    indented,
		"bad magic":                  frame([]byte("spack-go buildcache archive 3\n"), uint64(len(manifest)), manifest, body),
		"truncated":                  payload[:len(payload)/2],
		"truncated length":           payload[:len(magic)],
		"trailing byte":              append(append([]byte(nil), payload...), 'x'),
		"manifest length too long":   frame(magic, uint64(len(manifest))+1, manifest, body),
		"manifest length overflows":  frame(magic, 1<<63, manifest, body),
		"file size past the payload": withFile0(ar.Files[0].Size + len(body)),
		"negative file size":         withFile0(-1),
		"non-canonical manifest":     frame(magic, uint64(len(indented)), indented, body),
	}
}

// TestDecodeArchiveRejectsDamage: every damaged variant fails to decode,
// and a format-1 archive is refused by Pull as a manifest failure.
func TestDecodeArchiveRejectsDamage(t *testing.T) {
	payload, damaged := damagedArchives(t)
	if _, err := buildcache.DecodeArchive(payload); err != nil {
		t.Fatalf("intact archive: %v", err)
	}
	for name, data := range damaged {
		if _, err := buildcache.DecodeArchive(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}

	mirror, cache, concrete := pushedMirror(t, "libelf")
	hash := concrete.FullHash()
	payload, _ = mirror.Blob(archiveBlob(hash))
	ar, err := buildcache.DecodeArchive(payload)
	if err != nil {
		t.Fatal(err)
	}
	ar.Format = 1
	v1, err := json.MarshalIndent(ar, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	mirror.PutBlob(archiveBlob(hash), v1)
	mirror.PutBlob(checksumBlob(hash), []byte(buildcache.ChecksumOf(v1)+"\n"))
	_, stB, _ := newEnv(t, "/site/store")
	_, err = cache.Pull(stB, concrete, true)
	if kind := buildcache.ErrorKind(err); kind != buildcache.KindManifest {
		t.Fatalf("format-1 pull: error kind = %q (%v), want %q", kind, err, buildcache.KindManifest)
	}
}

// FuzzDecodeArchive feeds archive bytes from an untrusted cache to the
// decoder. Decoding must never panic, and the decoder accepts only the
// canonical encoding: re-encoding any archive it accepts gives back the
// exact input bytes, which are what the checksum and signature cover.
func FuzzDecodeArchive(f *testing.F) {
	payload, damaged := damagedArchives(f)
	f.Add(payload)
	for _, data := range damaged {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ar, err := buildcache.DecodeArchive(data)
		if err != nil {
			return
		}
		again, err := buildcache.EncodeArchive(ar)
		if err != nil {
			t.Fatalf("re-encode of an accepted archive: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encode differs from the accepted input:\n in %q\nout %q", data, again)
		}
	})
}
