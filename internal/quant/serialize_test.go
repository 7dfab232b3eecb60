package quant

import (
	"bytes"
	"io"
	"os"
	"testing"

	"itask/internal/tensor"
	"itask/internal/vit"
)

func serTestModel(t *testing.T) *Model {
	t.Helper()
	cfg := vit.Config{
		ImageSize: 32, Channels: 3, PatchSize: 8,
		Dim: 32, Depth: 2, Heads: 4, MLPRatio: 2, Classes: 5,
	}
	m := vit.New(cfg, tensor.NewRNG(1))
	qm, err := FromViT(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return qm
}

func TestQuantSaveLoadRoundTrip(t *testing.T) {
	qm := serTestModel(t)
	var buf bytes.Buffer
	if err := qm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Bit-identical inference.
	img := tensor.Randn(tensor.NewRNG(2), 0.5, 3, 32, 32)
	patches := vit.Patchify(qm.Cfg, []*tensor.Tensor{img})
	a := qm.DetHead(qm.Forward(patches))
	b := loaded.DetHead(loaded.Forward(patches))
	if !a.Equal(b) {
		t.Fatal("loaded model inference differs")
	}
	if loaded.WeightBytes() != qm.WeightBytes() {
		t.Errorf("weight bytes %d vs %d", loaded.WeightBytes(), qm.WeightBytes())
	}
	if loaded.QC != qm.QC {
		t.Errorf("scheme %+v vs %+v", loaded.QC, qm.QC)
	}
}

func TestQuantSaveLoadFile(t *testing.T) {
	qm := serTestModel(t)
	f, err := os.Create(t.TempDir() + "/model.itq8")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := qm.Save(f); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cfg != qm.Cfg {
		t.Error("config lost in file round trip")
	}
}

func TestQuantLoadRejectsGarbage(t *testing.T) {
	for name, data := range map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOPE1234567890"),
		"truncated": func() []byte {
			qm := serTestModel(t)
			var buf bytes.Buffer
			if err := qm.Save(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()[:buf.Len()/2]
		}(),
	} {
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected load error", name)
		}
	}
}

func TestQuantLoadRejectsCorruptDimensions(t *testing.T) {
	qm := serTestModel(t)
	var buf bytes.Buffer
	if err := qm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the image-size field (first config u32 after magic+version).
	data[8] = 0
	data[9] = 0
	data[10] = 0
	data[11] = 0
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Error("corrupt geometry should fail validation")
	}
}

func TestQuantCheckpointCompact(t *testing.T) {
	qm := serTestModel(t)
	var buf bytes.Buffer
	if err := qm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// The int8 checkpoint must be far smaller than a float32 dump of the
	// same parameter count.
	floatBytes := 4 * len(qm.embed.w.Q) // very rough lower bound reference
	_ = floatBytes
	if buf.Len() > qm.WeightBytes()*3 {
		t.Errorf("checkpoint %d bytes vs weight footprint %d: too much overhead", buf.Len(), qm.WeightBytes())
	}
}
