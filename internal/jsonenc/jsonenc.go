// Package jsonenc writes and reads JSON by hand. The metadata encoders on
// the install path — spec JSON, the transaction journal and the store's
// index shards — and the daemon's /v1/concretize answer append with it
// instead of encoding/json's reflection. Every value it writes is
// byte-identical to what encoding/json writes for the same Go value: a
// string that needs any escaping is handed to json.Marshal. Its Reader
// is the matching decoder, for spec JSON and the /v1/concretize answer.
package jsonenc

import (
	"encoding/base64"
	"encoding/json"
)

// String appends s as a JSON string.
func String(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := len(dst)
	dst = append(dst, s...)
	return append(Escape(dst, start), '"')
}

// Escape treats dst[start:] as the raw contents of a JSON string and
// escapes them the way encoding/json does. Printable ASCII without quotes,
// backslashes or HTML-sensitive characters — package names, versions and
// store paths — is left in place; anything else is re-encoded by
// json.Marshal.
func Escape(dst []byte, start int) []byte {
	for _, c := range dst[start:] {
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(string(dst[start:])) // a string always marshals
			return append(dst[:start], q[1:len(q)-1]...)
		}
	}
	return dst
}

// Strings appends ss as a compact JSON array of strings.
func Strings(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = String(dst, s)
	}
	return append(dst, ']')
}

// Bool appends b as a JSON boolean.
func Bool(dst []byte, b bool) []byte {
	if b {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// Bytes appends b the way encoding/json encodes a []byte: a standard
// base64 string.
func Bytes(dst []byte, b []byte) []byte {
	dst = append(dst, '"')
	dst = base64.StdEncoding.AppendEncode(dst, b)
	return append(dst, '"')
}
