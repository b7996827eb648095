package syntax

// EncodeJSONOracle is the reflection encoder EncodeJSON must match byte
// for byte.
var EncodeJSONOracle = encodeJSONOracle

// DecodeJSONOracle is the reflection decoder DecodeJSON must agree with.
var DecodeJSONOracle = decodeJSONOracle
