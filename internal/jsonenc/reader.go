package jsonenc

import (
	"encoding/json"
	"fmt"
	"strings"
)

// maxDepth is how deeply arrays and objects may nest, as in encoding/json.
const maxDepth = 10000

// Reader reads one JSON document from a byte slice by hand, value by
// value, for the decoders that replace encoding/json's reflection on hot
// paths. It accepts exactly the documents encoding/json accepts: the same
// grammar, whitespace, string escapes and nesting limit.
//
// A string comes back as a sub-slice of the input when it holds printable
// ASCII with no escapes. What is rare in spec JSON is handed to
// encoding/json, as Escape hands such strings to json.Marshal: any other
// string is checked by json.Valid and unquoted by json.Unmarshal, and a
// number is checked by json.Valid. The first error sticks: later calls
// return zero values, and End reports it.
type Reader struct {
	data  []byte
	pos   int
	depth int
	// open is set right after a '{' or '[' is consumed, so the next Key
	// or Elem expects no comma.
	open bool
	err  error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// fail records an error (the first one wins) at the current offset.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("offset %d: %s", r.pos, fmt.Sprintf(format, args...))
	}
}

// ws skips whitespace and returns the next byte, or 0 at the end.
func (r *Reader) ws() byte {
	for ; r.pos < len(r.data); r.pos++ {
		switch c := r.data[r.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// expect consumes c as the next non-space byte.
func (r *Reader) expect(c byte, what string) bool {
	if r.err != nil {
		return false
	}
	if r.ws() != c {
		r.fail("want %s", what)
		return false
	}
	r.pos++
	return true
}

// literal consumes the keyword lit, whose first byte is next.
func (r *Reader) literal(lit string) bool {
	if len(r.data)-r.pos < len(lit) || string(r.data[r.pos:r.pos+len(lit)]) != lit {
		r.fail("bad literal")
		return false
	}
	r.pos += len(lit)
	return true
}

// Null consumes a null if one is next and reports whether it did.
func (r *Reader) Null() bool {
	if r.err != nil || r.ws() != 'n' {
		return false
	}
	return r.literal("null")
}

// push enters an array or object.
func (r *Reader) push(c byte, what string) bool {
	if !r.expect(c, what) {
		return false
	}
	if r.depth++; r.depth > maxDepth {
		r.fail("exceeded max depth")
		return false
	}
	r.open = true
	return true
}

// next is Key's and Elem's step: it consumes the container's closing byte
// (reporting false) or, past its first member, the comma before the next.
func (r *Reader) next(end byte) bool {
	if r.err != nil {
		return false
	}
	c := r.ws()
	if c == end {
		r.pos++
		r.depth--
		r.open = false
		return false
	}
	if r.open {
		r.open = false
		return true
	}
	if c != ',' {
		r.fail("want , or %c", end)
		return false
	}
	r.pos++
	return true
}

// Object consumes the '{' that opens an object.
func (r *Reader) Object() bool { return r.push('{', "object") }

// Key returns the key of the object's next member, with its ':'
// consumed, or reports false once the closing '}' is consumed (or on an
// error). The caller reads or skips the member's value next.
func (r *Reader) Key() ([]byte, bool) {
	if !r.next('}') {
		return nil, false
	}
	k := r.Str()
	return k, r.expect(':', "colon")
}

// Array consumes the '[' that opens an array.
func (r *Reader) Array() bool { return r.push('[', "array") }

// Elem reports whether the array has another element, consuming the
// comma before it or the closing ']'. The caller reads the element next.
func (r *Reader) Elem() bool { return r.next(']') }

// Str reads a string value. A string of printable ASCII with no escapes
// is returned in place, as a sub-slice of the input.
func (r *Reader) Str() []byte {
	if r.err != nil {
		return nil
	}
	if r.ws() != '"' {
		r.fail("want string")
		return nil
	}
	start := r.pos
	if plain := r.scanString(); r.err != nil {
		return nil
	} else if plain {
		return r.data[start+1 : r.pos-1]
	}
	var s string
	_ = json.Unmarshal(r.data[start:r.pos], &s) // cannot fail: scanString checked the string
	return []byte(s)
}

// scanString consumes the string whose opening quote is at r.pos and
// reports whether it is plain: printable ASCII with no escapes. Any other
// string is checked by json.Valid, which judges escapes and control
// characters as encoding/json does.
func (r *Reader) scanString() (plain bool) {
	start := r.pos
	plain = true
	for r.pos++; r.pos < len(r.data); r.pos++ {
		switch c := r.data[r.pos]; {
		case c == '"':
			r.pos++
			if !plain && !json.Valid(r.data[start:r.pos]) {
				r.fail("bad string")
			}
			return plain
		case c == '\\':
			r.pos++ // the escaped byte cannot end the string
			plain = false
		case c < 0x20 || c >= 0x80:
			plain = false
		}
	}
	r.fail("unterminated string")
	return false
}

// Bool reads a boolean value.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	switch r.ws() {
	case 't':
		return r.literal("true")
	case 'f':
		r.literal("false")
		return false
	}
	r.fail("want boolean")
	return false
}

// Skip reads and discards one value of any kind.
func (r *Reader) Skip() {
	if r.err != nil {
		return
	}
	switch c := r.ws(); {
	case c == '{':
		r.Object()
		for _, ok := r.Key(); ok; _, ok = r.Key() {
			r.Skip()
		}
	case c == '[':
		r.Array()
		for r.Elem() {
			r.Skip()
		}
	case c == '"':
		r.scanString()
	case c == 't':
		r.literal("true")
	case c == 'f':
		r.literal("false")
	case c == 'n':
		r.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		r.number()
	default:
		r.fail("want value")
	}
}

// number consumes the longest run of bytes that can occur in a number
// and checks it with json.Valid: in a valid document no such byte can
// follow a number.
func (r *Reader) number() {
	start := r.pos
	for r.pos < len(r.data) && strings.IndexByte("+-.0123456789Ee", r.data[r.pos]) >= 0 {
		r.pos++
	}
	if !json.Valid(r.data[start:r.pos]) {
		r.fail("bad number")
	}
}

// Raw reads one value of any kind and returns its bytes as they appear
// in the input, as a sub-slice of it.
func (r *Reader) Raw() []byte {
	if r.err != nil {
		return nil
	}
	r.ws()
	start := r.pos
	r.Skip()
	if r.err != nil {
		return nil
	}
	return r.data[start:r.pos]
}

// Offset returns how much of the input has been consumed.
func (r *Reader) Offset() int { return r.pos }

// Since returns the input consumed after offset start, as a sub-slice.
func (r *Reader) Since(start int) []byte { return r.data[start:r.pos] }

// Field returns the index of key in fields, or -1 when key names no
// field, in which case the caller skips its value. A key that differs
// from a field name only by case ("Root" for "root") is an error:
// encoding/json would read it as that field, and this reader is
// case-sensitive. strings.EqualFold folds the way encoding/json does for
// field names of ASCII letters, digits and '_'.
func (r *Reader) Field(key []byte, fields []string) int {
	for i, f := range fields {
		if string(key) == f {
			return i
		}
	}
	for _, f := range fields {
		if strings.EqualFold(string(key), f) {
			r.fail("key %q matches a field name only up to case", key)
			return -1
		}
	}
	return -1
}

// End reports the first error, or an error if anything but whitespace
// follows the value read.
func (r *Reader) End() error {
	if r.err == nil && (r.ws() != 0 || r.pos < len(r.data)) {
		r.fail("data after the top-level value")
	}
	return r.err
}
