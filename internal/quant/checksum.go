package quant

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// sumLen matches vit's truncated digest width so manifests are uniform.
const sumLen = 16

// Checksum names the int8 model FromViT makes from a float model by what it
// is made from: the float model's checksum and the scheme. Quantization is
// deterministic, so equal inputs name equal models.
func Checksum(floatSum string, c Config) string {
	h := sha256.Sum256(fmt.Appendf(nil, "%s|bits=%d|act=%d|per-channel=%t", floatSum, c.Bits, c.actBits(), c.PerChannel))
	return hex.EncodeToString(h[:])[:sumLen]
}
