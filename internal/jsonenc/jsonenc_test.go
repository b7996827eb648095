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
