package quant

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestQuantChecksumAndVerify(t *testing.T) {
	qm := serTestModel(t)
	path := filepath.Join(t.TempDir(), "g.itq8")
	sum, err := qm.SaveFileSum(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum) != sumLen {
		t.Fatalf("checksum %q length %d, want %d", sum, len(sum), sumLen)
	}
	mem, err := qm.Checksum()
	if err != nil || mem != sum {
		t.Fatalf("Checksum() = %q, %v; SaveFileSum = %q", mem, err, sum)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := loaded.Checksum(); err != nil || got != sum {
		t.Fatalf("loaded model hash %q, %v, want %q", got, err, sum)
	}
}
