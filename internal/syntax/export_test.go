package syntax

// EncodeJSONOracle is the reflection encoder EncodeJSON must match byte
// for byte.
var EncodeJSONOracle = encodeJSONOracle
