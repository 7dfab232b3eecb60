package quant

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"itask/internal/tensor"
	"itask/internal/vit"
)

// Serialized quantized-model format (little-endian):
//
//	magic "ITQ8" | version u32 |
//	config: 9×u32 (vit geometry) + 3×u32 (quant scheme) |
//	pos embedding f32[] |
//	embed qLinear | blocks (ln1, qkv, proj, ln2, mlp1, mlp2)... |
//	normF ln | det qLinear | cls qLinear
//
// qLinear: out u32, in u32, bits u32, nScales u32, scales f32[],
// rowSums i32[], bias-present u8, bias f32[], codes i8[].
// ln: dim u32, eps f32, gamma f32[], beta f32[].
const (
	qckptMagic   = "ITQ8"
	qckptVersion = 1
)

type qwriter struct {
	w   *bufio.Writer
	err error
}

func (q *qwriter) u32(v uint32) {
	if q.err == nil {
		q.err = binary.Write(q.w, binary.LittleEndian, v)
	}
}

func (q *qwriter) f32(v float32) { q.u32(math.Float32bits(v)) }

func (q *qwriter) f32s(vs []float32) {
	q.u32(uint32(len(vs)))
	for _, v := range vs {
		q.f32(v)
	}
}

func (q *qwriter) i32s(vs []int32) {
	q.u32(uint32(len(vs)))
	for _, v := range vs {
		q.u32(uint32(v))
	}
}

func (q *qwriter) i8s(vs []int8) {
	q.u32(uint32(len(vs)))
	if q.err != nil {
		return
	}
	buf := make([]byte, len(vs))
	for i, v := range vs {
		buf[i] = byte(v)
	}
	_, q.err = q.w.Write(buf)
}

func (q *qwriter) linear(l qLinear) {
	q.u32(uint32(l.w.Out))
	q.u32(uint32(l.w.In))
	q.u32(uint32(l.w.Bits))
	q.f32s(l.w.Scales)
	q.i32s(l.w.RowSums)
	if l.bias != nil {
		q.u32(1)
		q.f32s(l.bias)
	} else {
		q.u32(0)
	}
	q.i8s(l.w.Q)
}

func (q *qwriter) ln(p lnParams) {
	q.u32(uint32(len(p.gamma)))
	q.f32(p.eps)
	q.f32s(p.gamma)
	q.f32s(p.beta)
}

// Save writes the quantized model to w.
func (qm *Model) Save(w io.Writer) error {
	qw := &qwriter{w: bufio.NewWriter(w)}
	if _, err := qw.w.WriteString(qckptMagic); err != nil {
		return err
	}
	qw.u32(qckptVersion)
	c := qm.Cfg
	for _, v := range []int{c.ImageSize, c.Channels, c.PatchSize, c.Dim, c.Depth, c.Heads, c.MLPRatio, c.Classes} {
		qw.u32(uint32(v))
	}
	qw.f32(float32(c.Dropout))
	qw.u32(uint32(qm.QC.Bits))
	qw.u32(uint32(qm.QC.ActBits))
	if qm.QC.PerChannel {
		qw.u32(1)
	} else {
		qw.u32(0)
	}
	qw.f32s(qm.pos.Data)
	qw.linear(qm.embed)
	for _, b := range qm.blocks {
		qw.ln(b.ln1)
		qw.linear(b.qkv)
		qw.linear(b.proj)
		qw.ln(b.ln2)
		qw.linear(b.mlp1)
		qw.linear(b.mlp2)
	}
	qw.ln(qm.normF)
	qw.linear(qm.det)
	qw.linear(qm.cls)
	if qw.err != nil {
		return qw.err
	}
	return qw.w.Flush()
}

type qreader struct {
	r   *bufio.Reader
	err error
}

func (q *qreader) u32() uint32 {
	if q.err != nil {
		return 0
	}
	var v uint32
	q.err = binary.Read(q.r, binary.LittleEndian, &v)
	return v
}

func (q *qreader) f32() float32 { return math.Float32frombits(q.u32()) }

func (q *qreader) f32s() []float32 {
	n := q.u32()
	if q.err != nil || n > 1<<28 {
		if q.err == nil {
			q.err = fmt.Errorf("quant: implausible f32 slice length %d", n)
		}
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = q.f32()
	}
	return out
}

func (q *qreader) i32s() []int32 {
	n := q.u32()
	if q.err != nil || n > 1<<28 {
		if q.err == nil {
			q.err = fmt.Errorf("quant: implausible i32 slice length %d", n)
		}
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(q.u32())
	}
	return out
}

func (q *qreader) i8s() []int8 {
	n := q.u32()
	if q.err != nil || n > 1<<30 {
		if q.err == nil {
			q.err = fmt.Errorf("quant: implausible i8 slice length %d", n)
		}
		return nil
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(q.r, buf); err != nil {
		q.err = err
		return nil
	}
	out := make([]int8, n)
	for i, b := range buf {
		out[i] = int8(b)
	}
	return out
}

func (q *qreader) linear() qLinear {
	var l qLinear
	l.w.Out = int(q.u32())
	l.w.In = int(q.u32())
	l.w.Bits = int(q.u32())
	l.w.Scales = q.f32s()
	l.w.RowSums = q.i32s()
	if q.u32() == 1 {
		l.bias = q.f32s()
	}
	l.w.Q = q.i8s()
	if q.err == nil {
		if len(l.w.Q) != l.w.Out*l.w.In {
			q.err = fmt.Errorf("quant: weight codes %d for %dx%d", len(l.w.Q), l.w.Out, l.w.In)
		} else if len(l.w.RowSums) != l.w.Out {
			q.err = fmt.Errorf("quant: row sums %d for out=%d", len(l.w.RowSums), l.w.Out)
		} else if len(l.w.Scales) != 1 && len(l.w.Scales) != l.w.Out {
			q.err = fmt.Errorf("quant: %d scales for out=%d", len(l.w.Scales), l.w.Out)
		} else {
			l.w.pack()
		}
	}
	return l
}

func (q *qreader) ln() lnParams {
	var p lnParams
	dim := int(q.u32())
	p.eps = q.f32()
	p.gamma = q.f32s()
	p.beta = q.f32s()
	if q.err == nil && (len(p.gamma) != dim || len(p.beta) != dim) {
		q.err = fmt.Errorf("quant: LayerNorm params %d/%d for dim %d", len(p.gamma), len(p.beta), dim)
	}
	return p
}

// Load reads a quantized model from r.
func Load(r io.Reader) (*Model, error) {
	qr := &qreader{r: bufio.NewReader(r)}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(qr.r, magic); err != nil {
		return nil, fmt.Errorf("quant: reading magic: %w", err)
	}
	if string(magic) != qckptMagic {
		return nil, fmt.Errorf("quant: bad magic %q", magic)
	}
	if v := qr.u32(); v != qckptVersion {
		if qr.err != nil {
			return nil, qr.err
		}
		return nil, fmt.Errorf("quant: unsupported version %d", v)
	}
	var cfg vit.Config
	cfg.ImageSize = int(qr.u32())
	cfg.Channels = int(qr.u32())
	cfg.PatchSize = int(qr.u32())
	cfg.Dim = int(qr.u32())
	cfg.Depth = int(qr.u32())
	cfg.Heads = int(qr.u32())
	cfg.MLPRatio = int(qr.u32())
	cfg.Classes = int(qr.u32())
	cfg.Dropout = float64(qr.f32())
	if qr.err != nil {
		return nil, qr.err
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("quant: checkpoint config invalid: %w", err)
	}
	var qc Config
	qc.Bits = int(qr.u32())
	qc.ActBits = int(qr.u32())
	qc.PerChannel = qr.u32() == 1
	if qr.err != nil {
		return nil, qr.err
	}
	if err := qc.Validate(); err != nil {
		return nil, fmt.Errorf("quant: checkpoint scheme invalid: %w", err)
	}
	qm := &Model{Cfg: cfg, QC: qc}
	posData := qr.f32s()
	if qr.err == nil && len(posData) != cfg.Tokens()*cfg.Dim {
		return nil, fmt.Errorf("quant: pos embedding %d values, want %d", len(posData), cfg.Tokens()*cfg.Dim)
	}
	if qr.err != nil {
		return nil, qr.err
	}
	qm.pos = tensor.FromSlice(posData, cfg.Tokens(), cfg.Dim)
	qm.embed = qr.linear()
	for i := 0; i < cfg.Depth; i++ {
		var b qBlock
		b.ln1 = qr.ln()
		b.qkv = qr.linear()
		b.proj = qr.linear()
		b.ln2 = qr.ln()
		b.mlp1 = qr.linear()
		b.mlp2 = qr.linear()
		qm.blocks = append(qm.blocks, b)
	}
	qm.normF = qr.ln()
	qm.det = qr.linear()
	qm.cls = qr.linear()
	if qr.err != nil {
		return nil, qr.err
	}
	return qm, nil
}
