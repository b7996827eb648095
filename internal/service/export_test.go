package service

// DecodeConcretizeResponse is the hand-written decoder Client.Concretize
// reads the /v1/concretize answer with.
var DecodeConcretizeResponse = decodeConcretizeResponse
