package quant

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
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

// SaveFileSum writes the quantized model to path and returns the content
// checksum of the written bytes.
func (qm *Model) SaveFileSum(path string) (string, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	if err := qm.Save(io.MultiWriter(f, h)); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:sumLen], nil
}
