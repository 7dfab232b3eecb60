package quant

import (
	"crypto/sha256"
	"encoding/hex"
)

// sumLen matches vit's truncated digest width so manifests are uniform.
const sumLen = 16

// Checksum hashes the quantized model's canonical serialized form.
func (qm *Model) Checksum() (string, error) {
	h := sha256.New()
	if err := qm.Save(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:sumLen], nil
}
