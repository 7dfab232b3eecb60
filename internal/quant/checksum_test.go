package quant

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

func TestQuantChecksumAndVerify(t *testing.T) {
	qm := serTestModel(t)
	var buf bytes.Buffer
	if err := qm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := qm.Checksum()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum) != sumLen {
		t.Fatalf("checksum %q length %d, want %d", sum, len(sum), sumLen)
	}
	if h := sha256.Sum256(buf.Bytes()); hex.EncodeToString(h[:])[:sumLen] != sum {
		t.Fatalf("Checksum() = %q is not the hash of the saved bytes", sum)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := loaded.Checksum(); err != nil || got != sum {
		t.Fatalf("loaded model hash %q, %v, want %q", got, err, sum)
	}
}
