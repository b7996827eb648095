package buildcache_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"path"
	"slices"
	"strings"
	"testing"

	"repro/internal/buildcache"
)

// str is the format-3 manifest encoding of one string: a uvarint length,
// then the bytes.
func str(s string) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(s))), s...)
}

// padded is a non-minimal uvarint encoding of v: the minimal one with
// its last byte continued into a zero byte.
func padded(v uint64) []byte {
	b := binary.AppendUvarint(nil, v)
	b[len(b)-1] |= 0x80
	return append(b, 0)
}

// frame assembles archive bytes from their parts: a magic line, the
// manifest length, the manifest and the file bodies.
func frame(magic string, manifestLen uint64, manifest, body []byte) []byte {
	out := binary.AppendUvarint([]byte(magic), manifestLen)
	return append(append(out, manifest...), body...)
}

// bodies concatenates an archive's file bodies in manifest order.
func bodies(ar *buildcache.Archive) []byte {
	var out []byte
	for _, f := range ar.Files {
		out = append(out, f.Data...)
	}
	return out
}

// format1 renders an archive the way format 1 stored it: one JSON
// document, no magic line.
func format1(t testing.TB, ar *buildcache.Archive) []byte {
	t.Helper()
	old := *ar
	old.Format = 1
	data, err := json.MarshalIndent(&old, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// format2 renders an archive in the format-2 frame: the format-2 magic
// line, a JSON manifest without the file bodies, then the raw bodies.
func format2(t testing.TB, ar *buildcache.Archive) []byte {
	t.Helper()
	old := *ar
	old.Format = 2
	old.Files = nil
	for _, f := range ar.Files {
		f.Data = nil
		old.Files = append(old.Files, f)
	}
	manifest, err := json.Marshal(&old)
	if err != nil {
		t.Fatal(err)
	}
	return frame("spack-go buildcache archive 2\n", uint64(len(manifest)), manifest, bodies(ar))
}

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
	magic := string(payload[:bytes.IndexByte(payload, '\n')+1])
	body := bodies(ar)
	n, w := binary.Uvarint(payload[len(magic):])
	manifest := payload[len(magic)+w : len(magic)+w+int(n)]
	reframe := func(m []byte) []byte { return frame(magic, uint64(len(m)), m, body) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// replace swaps the one occurrence of old in data for new.
	replace := func(data, old, new []byte) []byte {
		if c := bytes.Count(data, old); c != 1 {
			t.Fatalf("%q occurs %d times, want once", old, c)
		}
		return bytes.Replace(data, old, new, 1)
	}
	// encoded re-encodes a shallow copy of the archive after edit.
	encoded := func(edit func(*buildcache.Archive)) []byte {
		cp := *ar
		edit(&cp)
		return buildcache.EncodeArchive(&cp)
	}

	// The first regular file's manifest entry: path, symlink, body size.
	var f0 int
	for ar.Files[f0].Symlink != "" {
		f0++
	}
	file := ar.Files[f0]
	size := binary.AppendUvarint(nil, uint64(len(file.Data)))
	withSize := func(sz []byte) []byte {
		return reframe(replace(manifest, cat(str(file.Path), str(file.Symlink), size),
			cat(str(file.Path), str(file.Symlink), sz)))
	}

	// An archive with two dependency prefixes, whose key/value pairs the
	// order cases swap or repeat. The intact twin must decode, so the
	// order is the only damage.
	twoDeps := encoded(func(a *buildcache.Archive) {
		a.DepPrefixes = map[string]string{"a": "/src/a", "b": "/src/b"}
	})
	if _, err := buildcache.DecodeArchive(twoDeps); err != nil {
		t.Fatalf("archive with two dependency prefixes: %v", err)
	}
	pairA, pairB := cat(str("a"), str("/src/a")), cat(str("b"), str("/src/b"))

	// Entry paths that would unpack outside the prefix.
	withFilePath := func(p string) []byte {
		return encoded(func(a *buildcache.Archive) {
			a.Files = slices.Clone(a.Files)
			a.Files[f0].Path = p
		})
	}
	if len(ar.Relocations) == 0 {
		t.Fatal("archive has no relocation table entry")
	}
	escapingReloc := encoded(func(a *buildcache.Archive) {
		a.Relocations = slices.Clone(a.Relocations)
		a.Relocations[0].Path = "../" + a.Relocations[0].Path
	})

	// The package name's length is the manifest's second field, after
	// the one-byte format number.
	_, pw := binary.Uvarint(manifest[1:])
	lengthPast := cat(manifest[:1], binary.AppendUvarint(nil, uint64(len(manifest))), manifest[1+pw:])

	return payload, map[string][]byte{
		"JSON document, no magic":          format1(t, ar),
		"format-2 archive":                 format2(t, ar),
		"bad magic":                        frame("spack-go buildcache archive 4\n", n, manifest, body),
		"truncated":                        payload[:len(payload)/2],
		"truncated length":                 payload[:len(magic)],
		"trailing byte":                    append(append([]byte(nil), payload...), 'x'),
		"manifest length too long":         frame(magic, n+1, manifest, body),
		"manifest length overflows":        frame(magic, 1<<63, manifest, body),
		"non-minimal manifest length":      cat([]byte(magic), padded(n), manifest, body),
		"file size past the payload":       withSize(binary.AppendUvarint(nil, uint64(len(file.Data)+len(body)))),
		"negative file size":               withSize(binary.AppendUvarint(nil, ^uint64(0))),
		"non-minimal varint":               withSize(padded(uint64(len(file.Data)))),
		"non-canonical manifest":           reframe(format1(t, ar)),
		"unsorted keys":                    replace(twoDeps, cat(pairA, pairB), cat(pairB, pairA)),
		"duplicate keys":                   replace(twoDeps, cat(pairA, pairB), cat(pairA, pairA)),
		"string length past manifest":      reframe(lengthPast),
		"trailing manifest bytes":          reframe(append(append([]byte(nil), manifest...), 0)),
		"invalid spec_json":                encoded(func(a *buildcache.Archive) { a.SpecJSON = []byte(`{"root":`) }),
		"empty spec_json":                  encoded(func(a *buildcache.Archive) { a.SpecJSON = nil }),
		"unsupported format in a frame":    encoded(func(a *buildcache.Archive) { a.Format = 4 }),
		unsafePath + "escaping file":       withFilePath("../../../../../../../etc/evil"),
		unsafePath + "absolute file":       withFilePath("/etc/evil"),
		unsafePath + "empty file":          withFilePath(""),
		unsafePath + "the prefix itself":   withFilePath("."),
		unsafePath + "non-clean file":      withFilePath("lib/../../evil"),
		unsafePath + "escaping relocation": escapingReloc,
	}
}

// unsafePath prefixes the names of the damaged archives whose only damage
// is an entry path outside the prefix; they must fail with a PathError.
const unsafePath = "unsafe path: "

// escapes reports whether unpacking an entry at prefix + "/" + p could
// touch anything but a path strictly inside the prefix.
func escapes(p string) bool {
	return !strings.HasPrefix(path.Join("/prefix", p), "/prefix/")
}

// TestDecodeArchiveRejectsDamage: every damaged variant fails to decode,
// and archives in the two earlier formats are refused by Pull as
// manifest failures.
func TestDecodeArchiveRejectsDamage(t *testing.T) {
	payload, damaged := damagedArchives(t)
	if _, err := buildcache.DecodeArchive(payload); err != nil {
		t.Fatalf("intact archive: %v", err)
	}
	for name, data := range damaged {
		_, err := buildcache.DecodeArchive(data)
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		var pe *buildcache.PathError
		if strings.HasPrefix(name, unsafePath) && !errors.As(err, &pe) {
			t.Errorf("%s: error %v, want a PathError", name, err)
		}
	}

	for name, old := range map[string]func(testing.TB, *buildcache.Archive) []byte{
		"format-1": format1, "format-2": format2,
	} {
		mirror, cache, concrete := pushedMirror(t, "libelf")
		hash := concrete.FullHash()
		payload, _ := mirror.Blob(archiveBlob(hash))
		ar, err := buildcache.DecodeArchive(payload)
		if err != nil {
			t.Fatal(err)
		}
		data := old(t, ar)
		mirror.PutBlob(archiveBlob(hash), data)
		mirror.PutBlob(checksumBlob(hash), []byte(buildcache.ChecksumOf(data)+"\n"))
		_, stB, _ := newEnv(t, "/site/store")
		_, err = cache.Pull(stB, concrete, true)
		if kind := buildcache.ErrorKind(err); kind != buildcache.KindManifest {
			t.Fatalf("%s pull: error kind = %q (%v), want %q", name, kind, err, buildcache.KindManifest)
		}
	}
}

// FuzzDecodeArchive feeds archive bytes from an untrusted cache to the
// decoder. Decoding must never panic, and the decoder accepts only the
// canonical encoding: re-encoding any archive it accepts gives back the
// exact input bytes, which are what the checksum and signature cover. No
// file or relocation path of an accepted archive escapes the prefix.
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
		if again := buildcache.EncodeArchive(ar); !bytes.Equal(again, data) {
			t.Fatalf("re-encode differs from the accepted input:\n in %q\nout %q", data, again)
		}
		for _, f := range ar.Files {
			if escapes(f.Path) {
				t.Fatalf("accepted file path %q escapes the prefix", f.Path)
			}
		}
		for _, rel := range ar.Relocations {
			if escapes(rel.Path) {
				t.Fatalf("accepted relocation path %q escapes the prefix", rel.Path)
			}
		}
	})
}
