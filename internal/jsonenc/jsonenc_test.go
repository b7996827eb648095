package jsonenc

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestMatchesEncodingJSON holds every appender to encoding/json's output
// for the same value, including strings that need escaping.
func TestMatchesEncodingJSON(t *testing.T) {
	strs := []string{"", "mpileaks", "/spack/opt/linux-x86_64/gcc-4.9.2/libelf-0.8.13-abcdef",
		`quote " and \ backslash`, "<html> & co", "tab\tnew\nline\x00nul", "héllo", "  ",
		"bad utf8 \xff\xfe", "emoji 🙂"}
	for _, s := range strs {
		want, _ := json.Marshal(s)
		if got := String(nil, s); !bytes.Equal(got, want) {
			t.Errorf("String(%q) = %s, want %s", s, got, want)
		}
		// Escape leaves the bytes before start alone.
		got := Escape(append([]byte("prefix"), s...), len("prefix"))
		if !bytes.Equal(got, append([]byte("prefix"), want[1:len(want)-1]...)) {
			t.Errorf("Escape(%q) = %s", s, got)
		}
	}
	for _, ss := range [][]string{{}, {"a"}, strs} {
		want, _ := json.Marshal(ss)
		if got := Strings(nil, ss); !bytes.Equal(got, want) {
			t.Errorf("Strings(%q) = %s, want %s", ss, got, want)
		}
	}
	for _, b := range []bool{true, false} {
		want, _ := json.Marshal(b)
		if got := Bool(nil, b); !bytes.Equal(got, want) {
			t.Errorf("Bool(%v) = %s, want %s", b, got, want)
		}
	}
	for _, b := range [][]byte{{}, []byte("x"), []byte("module file\n\x00\xff"), bytes.Repeat([]byte{0xfb}, 100)} {
		want, _ := json.Marshal(b)
		if got := Bytes(nil, b); !bytes.Equal(got, want) {
			t.Errorf("Bytes(%q) = %s, want %s", b, got, want)
		}
	}
}

// TestReaderAcceptsWhatEncodingJSONAccepts: Skip then End accepts exactly
// the documents json.Valid accepts, and Str reads back every string
// String writes, as json.Unmarshal does.
func TestReaderAcceptsWhatEncodingJSONAccepts(t *testing.T) {
	docs := []string{
		``, ` `, `null`, `true`, `false`, `nul`, `truex`, `0`, `-0`, `01`, `-`, `1.`, `1.5`, `1e`,
		`1e+5`, `-2.5E-3`, `""`, `"a`, `"\q"`, `"\u12"`, `"ካ"`, "\"\x01\"", "\"\xff\"",
		`[]`, `[1,]`, `[,1]`, `[1 2]`, `[[[]]]`, `{}`, `{"a"}`, `{"a":}`, `{"a":1,}`, `{,}`,
		`{"a":1 "b":2}`, `{1:2}`, ` {"a" : [1, {"b": null}] } `, `{} {}`, "{}\x00", `[1]]`,
		`{"a":"𐀀"}`, `"\/\b\f\n\r\t\"\\"`, `[1x]`, `1.5.3`, `--1`, `1e5e5`, `0x10`, `[1-2]`, `+1`, `.5`,
		`[-0.0e-0]`, `"\ud800"`, `"\u00e9\u0041"`, `"\`, `"a\"`,
	}
	for _, doc := range docs {
		r := NewReader([]byte(doc))
		r.Skip()
		if got, want := r.End() == nil, json.Valid([]byte(doc)); got != want {
			t.Errorf("%q: Reader accepts=%v, json.Valid=%v", doc, got, want)
		}
	}
	for _, doc := range []string{`"`, `"abc`, `"a\`, "\"\x01\"", `5`} {
		r := NewReader([]byte(doc))
		if got := r.Str(); got != nil || r.End() == nil {
			t.Errorf("Str of %q = %q, %v; want an error", doc, got, r.End())
		}
	}
	for _, s := range []string{"", "plain", `quote " and \ backslash`, "<html> & co", "tab\tnew\nline\x00nul",
		"héllo", "bad utf8 \xff\xfe", "emoji 🙂"} {
		r := NewReader(String(nil, s))
		var want string
		json.Unmarshal(String(nil, s), &want)
		if got := r.Str(); string(got) != want || r.End() != nil {
			t.Errorf("Str of %q = %q (%v), want %q", s, got, r.End(), want)
		}
	}
}
