package quant

import "testing"

func TestChecksumNamesFloatModelAndScheme(t *testing.T) {
	sum := Checksum("0123456789abcdef", DefaultConfig())
	if len(sum) != sumLen {
		t.Fatalf("checksum %q length %d, want %d", sum, len(sum), sumLen)
	}
	if again := Checksum("0123456789abcdef", DefaultConfig()); again != sum {
		t.Fatalf("same inputs named %q and %q", sum, again)
	}
	for name, other := range map[string]string{
		"float model": Checksum("fedcba9876543210", DefaultConfig()),
		"bits":        Checksum("0123456789abcdef", Config{Bits: 4, PerChannel: true}),
		"per-tensor":  Checksum("0123456789abcdef", Config{Bits: 8}),
		"act bits":    Checksum("0123456789abcdef", Config{Bits: 8, ActBits: 6, PerChannel: true}),
	} {
		if other == sum {
			t.Errorf("another %s kept the checksum %q", name, sum)
		}
	}
	// ActBits 0 means ActBits = Bits: the same model, so the same name.
	if got := Checksum("0123456789abcdef", Config{Bits: 8, ActBits: 8, PerChannel: true}); got != sum {
		t.Errorf("explicit act bits = bits named %q, want %q", got, sum)
	}
}
