package syntax

import "repro/internal/spec"

// EncodeJSONOracle is the reflection encoder EncodeJSON must match byte
// for byte.
var EncodeJSONOracle = encodeJSONOracle

// DecodeJSONOracle is the reflection decoder DecodeJSON must agree with.
var DecodeJSONOracle = decodeJSONOracle

// ScanNode runs the canonical-node scanner on s twice: once with no
// compiler read before, and once after reading s's own compiler, so both
// of its compiler paths are taken. It reports the two nodes and whether
// each scan accepted s.
func ScanNode(s string) (cold, warm *spec.Spec, coldOK, warmOK bool) {
	var prev scannedCompiler
	cold, warm = spec.New(""), spec.New("")
	coldOK = scanNode(cold, s, &prev)
	warmOK = scanNode(warm, s, &prev)
	return cold, warm, coldOK, warmOK
}
