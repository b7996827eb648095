package buildcache

// DecodeArchive and EncodeArchive expose the archive codec to the
// external test package.
func DecodeArchive(data []byte) (*Archive, error) { return decodeArchive(data) }

func EncodeArchive(a *Archive) []byte { return a.encode() }
