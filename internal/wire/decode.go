package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// decode.go: the JSON detect-body decoder both doors call. A detect body is
// almost entirely one array of ~3k decimal floats, and encoding/json pays
// for it twice over: a full validating scan, then a reflect-driven decode
// that re-scans every literal, round-trips each number through a string and
// regrows the slice as it goes. DecodeDetect is one pass over the bytes for
// exactly the DetectBody schema.
//
// Grammar: RFC 8259, one value per body (only whitespace may follow it).
// The value is an object or null. Member names bind to fields the way
// encoding/json binds them — after unescaping, exact match first, then
// case-insensitively under Unicode simple folding. Unknown members of any
// shape are validated and skipped, to the same nesting depth encoding/json
// allows; null leaves any field at its zero value (a null pixel is 0).
// Integer fields take integer literals only (no fraction, no exponent).
//
// The decoder is stricter than encoding/json in four named ways, each a
// case where two readers of one body could come away with different
// requests (the reason the trailing-data rule exists as well):
//
//   - errDuplicateMember: two members binding to the same field.
//     encoding/json keeps the last, other parsers the first.
//   - errInvalidUTF8: bytes in a string that are not UTF-8. encoding/json
//     rewrites them to U+FFFD, so the name it routes on is not the name
//     that was sent.
//   - errLoneSurrogate: a \uD800–\uDFFF escape that is not half of a
//     surrogate pair — also rewritten to U+FFFD by encoding/json.
//   - errTooLarge: an image beyond what the caller can accept — a fourth
//     shape entry, a shape entry outside [1, max], a shape whose product
//     exceeds max, or more data values than the shape (when it came first)
//     or max allows. DetectBody.Check rejects every such body anyway; the
//     decoder only stops reading it early.
//
// Numbers: every pixel is bit-identical to strconv.ParseFloat(tok, 32).

var (
	errDuplicateMember = errors.New("bad JSON: duplicate member")
	errInvalidUTF8     = errors.New("bad JSON: invalid UTF-8 in string")
	errLoneSurrogate   = errors.New("bad JSON: unpaired UTF-16 surrogate escape in string")
	errTooLarge        = errors.New("image exceeds the size this server accepts")
	errTrailingData    = errors.New("trailing data after JSON body")
)

// maxJSONDepth is encoding/json's nesting bound, so the set of bodies
// accepted does not depend on which decoder a door links.
const maxJSONDepth = 10000

// detectBlock is everything a decoded body points at except its pixels,
// which are pooled, and its strings, so a decode is one allocation for the
// lot.
type detectBlock struct {
	body  DetectBody
	image DetectImage
	scene DetectScene
	shape [3]int
}

// The schema, as member-name tables indexed by the constants beside them.
var (
	bodyFields  = []string{"task", "tenant", "image", "scene", "timeout_ms"}
	imageFields = []string{"shape", "data"}
	sceneFields = []string{"domain", "seed"}
)

const (
	fTask = iota
	fTenant
	fImage
	fScene
	fTimeoutMS
)

// The first member of imageFields and of sceneFields; the other is data
// and seed.
const (
	fShape  = 0
	fDomain = 0
)

// DecodeDetect decodes a JSON /v1/detect body. imageSize is the side S of
// the [3,S,S] image the caller serves: an image with more than 3·S·S values
// is refused at the first value too many, without reading or allocating for
// the rest. A caller with no size of its own (the gateway) passes 0 and gets
// the binary frame's structural bound instead. The result shares no memory
// with body — strings and pixels are copies — so the pooled buffer body
// came from may be released as soon as DecodeDetect returns. The pixels are
// decoded into pooled memory: DetectBody.Release returns it once nothing
// reads them. Errors are fit for HTTP 400. The caller still owes
// DetectBody.Check.
func DecodeDetect(body []byte, imageSize int) (*DetectBody, error) {
	d := newDecoder(body, imageSize)
	return d.detect()
}

// ProbeDetect is DecodeDetect with the image's data array left unconverted:
// the same walk over body, except that the array is taken as its bytes, from
// its '[' to the first ']' after it, and returned as data (aliasing body).
// It accepts a body only when that walk succeeds, the body carries an image
// and no scene, the image's data is an array (not null, not absent), and the
// body passes Check on everything but the data's length; otherwise ok is
// false, and the caller decodes the body in full to learn its verdict.
// Whatever ParseDetect accepts, ProbeDetect accepts with the same task,
// tenant, timeout and shape, and data is the text the pixels were decoded
// from; a body ProbeDetect accepts and ParseDetect refuses is refused for
// its array's contents.
func ProbeDetect(body []byte, imageSize int) (dr *DetectBody, data []byte, ok bool) {
	d := newDecoder(body, imageSize)
	d.probe = true
	dr, err := d.detect()
	if err != nil || dr.Image == nil || d.data == nil || dr.checkRequest(imageSize) != nil {
		return nil, nil, false
	}
	return dr, d.data, true
}

func newDecoder(body []byte, imageSize int) decoder {
	d := decoder{b: body, max: maxFrameElems}
	if imageSize > 0 {
		d.max = 3 * imageSize * imageSize
	}
	return d
}

// detect decodes the body DecodeDetect and ProbeDetect were given.
func (d *decoder) detect() (*DetectBody, error) {
	blk := &detectBlock{}
	d.ws()
	if !d.null() {
		if d.peek() != '{' {
			return nil, d.syntax("body must be a JSON object")
		}
		if err := d.object(bodyFields, 1, func(f int) error { return d.bodyMember(blk, f) }); err != nil {
			blk.body.Release()
			return nil, err
		}
	}
	d.ws()
	// One value per body: `{...}garbage` accepted with the garbage ignored
	// is how two readers come to disagree on where a body ends, which is
	// how smuggled payloads start.
	if d.i != len(d.b) {
		blk.body.Release()
		return nil, errTrailingData
	}
	return &blk.body, nil
}

type decoder struct {
	b   []byte
	i   int
	max int // most image values the caller accepts
	// probe leaves the data array unconverted: imageMember keeps its bytes,
	// from its '[' to its first ']', in data (ProbeDetect).
	probe bool
	data  []byte
	key   [16]byte // the longest name any spelling of a field unescapes to is 11 bytes
}

func (d *decoder) syntax(msg string) error {
	return fmt.Errorf("bad JSON: %s at offset %d", msg, d.i)
}

// peek returns the byte at the cursor, or 0 at end of input (0 is not a
// byte any production accepts, so callers need no separate bounds check).
func (d *decoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

func (d *decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return
		}
	}
}

// literal consumes lit if the input continues with it.
func (d *decoder) literal(lit string) bool {
	if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

func (d *decoder) null() bool { return d.literal("null") }

// object walks the object whose '{' is at the cursor. For each member whose
// name binds to names[f] and whose value is not null it calls member(f) with
// the cursor on the value; other members are skipped. depth is this object's
// nesting depth.
func (d *decoder) object(names []string, depth int, member func(f int) error) error {
	d.i++
	var seen uint
	d.ws()
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntax("expected a member name")
		}
		name, err := d.scanString(d.key[:0], len(d.key))
		if err != nil {
			return err
		}
		f := fieldIndex(names, name)
		d.ws()
		if d.peek() != ':' {
			return d.syntax("expected ':' after member name")
		}
		d.i++
		d.ws()
		if f < 0 {
			err = d.skip(depth + 1)
		} else if seen&(1<<f) != 0 {
			return fmt.Errorf("%w %q", errDuplicateMember, names[f])
		} else {
			seen |= 1 << f
			if !d.null() { // null leaves the field at its zero value
				err = member(f)
			}
		}
		if err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.i++
			d.ws()
		case '}':
			d.i++
			return nil
		default:
			return d.syntax("expected ',' or '}' in object")
		}
	}
}

// fieldIndex binds a member name to a field as encoding/json does: the
// exact name, else the field equal to it under simple case folding (which is
// why "ta\u017f\u212a" — long s, Kelvin sign — is "task"). No two fields
// fold together, so one folded comparison finds both.
func fieldIndex(names []string, name []byte) int {
	for f, n := range names {
		if strings.EqualFold(string(name), n) {
			return f
		}
	}
	return -1
}

// array walks the array whose '[' is at the cursor, calling elem(n) with the
// cursor on element n.
func (d *decoder) array(elem func(n int) error) error {
	d.i++
	d.ws()
	if d.peek() == ']' {
		d.i++
		return nil
	}
	for n := 0; ; n++ {
		if err := elem(n); err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.i++
			d.ws()
		case ']':
			d.i++
			return nil
		default:
			return d.syntax("expected ',' or ']' in array")
		}
	}
}

// skip validates and discards the value at the cursor.
func (d *decoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '{' || c == '[':
		if depth > maxJSONDepth {
			return d.syntax("nesting too deep")
		}
		if c == '{' {
			return d.object(nil, depth, nil)
		}
		return d.array(func(int) error { return d.skip(depth + 1) })
	case c == '"':
		_, err := d.scanString(nil, -1)
		return err
	case c == '-' || '0' <= c && c <= '9':
		var n num
		return d.number(&n)
	case d.literal("true") || d.literal("false") || d.null():
		return nil
	}
	return d.syntax("expected a value")
}

func (d *decoder) bodyMember(blk *detectBlock, f int) (err error) {
	switch f {
	case fTask:
		blk.body.Task, err = d.str()
	case fTenant:
		blk.body.Tenant, err = d.str()
	case fTimeoutMS:
		var v int64
		v, err = d.int64()
		blk.body.TimeoutMS = int(v)
		if err == nil && int64(blk.body.TimeoutMS) != v {
			err = fmt.Errorf("bad JSON: timeout_ms %d out of range", v)
		}
	case fImage:
		if d.peek() != '{' {
			return d.syntax("image must be an object")
		}
		blk.body.Image = &blk.image
		err = d.object(imageFields, 2, func(f int) error { return d.imageMember(blk, f) })
	case fScene:
		if d.peek() != '{' {
			return d.syntax("scene must be an object")
		}
		blk.body.Scene = &blk.scene
		err = d.object(sceneFields, 2, func(f int) error { return d.sceneMember(&blk.scene, f) })
	}
	return err
}

func (d *decoder) sceneMember(sc *DetectScene, f int) (err error) {
	if f == fDomain {
		sc.Domain, err = d.str()
	} else {
		sc.Seed, err = d.uint64()
	}
	return err
}

func (d *decoder) imageMember(blk *detectBlock, f int) error {
	if d.peek() != '[' {
		return d.syntax("image shape and data must be arrays")
	}
	img := &blk.image
	if f == fShape {
		img.Shape = blk.shape[:0]
		elems := 1
		return d.array(func(n int) error {
			if n == len(blk.shape) {
				return fmt.Errorf("%w: shape has more than %d entries", errTooLarge, len(blk.shape))
			}
			var v int64
			if !d.null() {
				var err error
				if v, err = d.int64(); err != nil {
					return err
				}
			}
			if v < 1 || v > int64(d.max) {
				return fmt.Errorf("%w: shape entry %d outside [1, %d]", errTooLarge, v, d.max)
			}
			img.Shape = append(img.Shape, int(v))
			if elems *= int(v); elems > d.max {
				return fmt.Errorf("%w: shape %v is more than %d values", errTooLarge, img.Shape, d.max)
			}
			return nil
		})
	}

	if d.probe {
		end := bytes.IndexByte(d.b[d.i:], ']')
		if end < 0 {
			return d.syntax("unterminated data array")
		}
		d.data = d.b[d.i : d.i+end+1]
		d.i += end + 1
		return nil
	}

	// Size the pixels once, by what the body says and what it can hold: the
	// shape if it came first, else the caller's bound, and never more than
	// the bytes left could spell — a value and its separator are at least
	// two. A declared shape alone buys no memory.
	bound := d.max
	if len(img.Shape) == len(blk.shape) {
		bound = img.Shape[0] * img.Shape[1] * img.Shape[2]
	}
	img.Data = []float32{}
	return d.array(func(n int) error {
		if n == 0 {
			// Sized before the bound check: bound >= 1, so the first value is
			// never the one too many.
			img.Data, blk.body.pixels = pixels(min(bound, (len(d.b)-d.i)/2+1))
			img.Data = img.Data[:0]
		}
		if n == bound {
			return fmt.Errorf("%w: data has more than %d values", errTooLarge, bound)
		}
		var v float32
		if d.peek() != 'n' || !d.null() { // a null pixel is 0
			var err error
			if v, err = d.float32(); err != nil {
				return err
			}
		}
		img.Data = append(img.Data, v)
		return nil
	})
}

// str decodes the string value at the cursor into a fresh string.
func (d *decoder) str() (string, error) {
	if d.peek() != '"' {
		return "", d.syntax("expected a string")
	}
	// Plain ASCII with no escapes — every task, tenant and domain a real
	// client sends — is one copy out of the body.
	for j := d.i + 1; j < len(d.b); j++ {
		c := d.b[j]
		if c == '"' {
			s := string(d.b[d.i+1 : j])
			d.i = j + 1
			return s, nil
		}
		if c < 0x20 || c == '\\' || c >= utf8.RuneSelf {
			break
		}
	}
	out, err := d.scanString(nil, math.MaxInt)
	return string(out), err
}

// scanString validates the string whose opening quote is at the cursor and
// leaves the cursor after its closing quote. The unescaped bytes are
// appended to dst while they fit in limit bytes; a string that does not fit
// comes back empty (no field name is that long), and limit < 0 keeps
// nothing.
func (d *decoder) scanString(dst []byte, limit int) ([]byte, error) {
	b := d.b
	keep := func(p ...byte) {
		if limit >= 0 && len(dst)+len(p) <= limit {
			dst = append(dst, p...)
		} else {
			dst, limit = dst[:0], -1
		}
	}
	for d.i++; d.i < len(b); {
		c := b[d.i]
		switch {
		case c == '"':
			d.i++
			return dst, nil
		case c == '\\':
			r, err := d.escape()
			if err != nil {
				return nil, err
			}
			var enc [utf8.UTFMax]byte
			keep(enc[:utf8.EncodeRune(enc[:], r)]...)
		case c < 0x20:
			return nil, d.syntax("control character in string")
		case c < utf8.RuneSelf:
			keep(c)
			d.i++
		default:
			r, n := utf8.DecodeRune(b[d.i:])
			if r == utf8.RuneError && n == 1 {
				return nil, errInvalidUTF8
			}
			keep(b[d.i : d.i+n]...)
			d.i += n
		}
	}
	return nil, d.syntax("unterminated string")
}

// escape decodes the escape sequence whose backslash is at the cursor.
func (d *decoder) escape() (rune, error) {
	d.i++
	c := d.peek()
	d.i++
	switch c {
	case '"', '\\', '/':
		return rune(c), nil
	case 'b':
		return '\b', nil
	case 'f':
		return '\f', nil
	case 'n':
		return '\n', nil
	case 'r':
		return '\r', nil
	case 't':
		return '\t', nil
	case 'u':
		r, ok := d.hex4()
		if !ok {
			return 0, d.syntax("bad \\u escape")
		}
		if !utf16Surrogate(r) {
			return r, nil
		}
		if r < 0xDC00 && d.literal(`\u`) {
			if lo, ok := d.hex4(); ok && lo >= 0xDC00 && utf16Surrogate(lo) {
				return 0x10000 + (r-0xD800)<<10 + (lo - 0xDC00), nil
			}
		}
		return 0, errLoneSurrogate
	}
	d.i--
	return 0, d.syntax("bad escape in string")
}

func utf16Surrogate(r rune) bool { return 0xD800 <= r && r <= 0xDFFF }

// hex4 consumes four hex digits.
func (d *decoder) hex4() (rune, bool) {
	if len(d.b)-d.i < 4 {
		return 0, false
	}
	var r rune
	for _, c := range d.b[d.i : d.i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	d.i += 4
	return r, true
}

// num is a scanned RFC 8259 number: (-1)^neg × mant × 10^exp10 when digits
// says mant holds every significant digit (it wraps past 19).
type num struct {
	neg     bool
	integer bool // no fraction and no exponent
	mant    uint64
	digits  int // significant digits: those from the first nonzero one on
	exp10   int // saturates far beyond any float's range
}

// number scans the number at the cursor into n and leaves the cursor after
// its last byte.
func (d *decoder) number(n *num) error {
	// Locals, not fields of n: this loop runs once per pixel byte, and the
	// compiler keeps only locals in registers.
	b, i := d.b, d.i
	var (
		mant    uint64
		digits  int
		exp10   int
		integer = true
	)
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	switch {
	case !digitAt(b, i):
		d.i = i
		return d.syntax("expected a digit")
	case b[i] == '0':
		i++
	default:
		for ; digitAt(b, i); i++ {
			mant = mant*10 + uint64(b[i]-'0')
			digits++
		}
	}
	if i < len(b) && b[i] == '.' {
		integer = false
		i++
		if !digitAt(b, i) {
			d.i = i
			return d.syntax("expected a digit after '.'")
		}
		for ; digitAt(b, i); i++ {
			mant = mant*10 + uint64(b[i]-'0')
			if mant != 0 || digits != 0 { // zeros before the first nonzero digit carry no significance
				digits++
			}
			exp10--
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		integer = false
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		if !digitAt(b, i) {
			d.i = i
			return d.syntax("expected a digit in exponent")
		}
		e := 0
		for ; digitAt(b, i); i++ {
			if e < 1<<20 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	*n = num{neg: neg, integer: integer, mant: mant, digits: digits, exp10: exp10}
	d.i = i
	return nil
}

func digitAt(b []byte, i int) bool { return i < len(b) && b[i]-'0' <= 9 }

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// float32 decodes the number at the cursor to exactly the float32
// strconv.ParseFloat(tok, 32) returns, out-of-range included: number's
// scan, then the exact step, then strconv for what the exact step cannot
// settle.
func (d *decoder) float32() (float32, error) {
	var n num
	start := d.i
	if err := d.number(&n); err != nil {
		return 0, err
	}
	if n.digits <= 19 { // more digits may have wrapped mant
		if f, ok := exact32(n.mant, n.exp10, n.neg); ok {
			return f, nil
		}
	}
	// The token is a validated JSON number, so the only error left is
	// range. ParseFloat clones what it keeps of its argument, so the
	// conversion below stays off the heap for tokens of ordinary length.
	tok := d.b[start:d.i]
	f, err := strconv.ParseFloat(string(tok), 32)
	if err != nil {
		return 0, fmt.Errorf("bad JSON: number %s out of float32 range", tok)
	}
	return float32(f), nil
}

// exact32 is the correctly rounded float32 of (-1)^neg × mant × 10^exp10
// when one float64 operation can settle it. Below 2^53 the mantissa is an
// exact float64, and so is 10^|exp10| up to 22, so one multiply or divide
// yields the correctly rounded float64 of the decimal — between 1e-22 and
// 2^53·1e22 < 1e38, inside float32's normal range, so neither overflow nor
// the subnormals' coarser grid can arise here. Rounding that again to
// float32 is the correctly rounded float32 unless the float64 landed
// exactly on the midpoint of two float32s (low 29 mantissa bits 1000…0):
// every midpoint is a float64, so a decimal off it rounds to the same side
// of it, but a decimal within half a float64 ulp of it may sit on either
// side, and only the full-precision parse can say which.
func exact32(mant uint64, exp10 int, neg bool) (float32, bool) {
	if mant >= 1<<53 || exp10 < -22 || exp10 > 22 {
		return 0, false
	}
	f := float64(mant)
	if exp10 < 0 {
		f /= pow10[-exp10]
	} else {
		f *= pow10[exp10]
	}
	if math.Float64bits(f)&(1<<29-1) == 1<<28 {
		return 0, false
	}
	if neg {
		f = -f
	}
	return float32(f), true
}

// integer scans the number at the cursor and insists it is an integer
// literal, as encoding/json does for integer fields.
func (d *decoder) integer() ([]byte, error) {
	at := d.i
	var n num
	err := d.number(&n)
	if err == nil && !n.integer {
		d.i = at
		err = d.syntax("expected an integer")
	}
	return d.b[at:d.i], err
}

func (d *decoder) int64() (int64, error) {
	tok, err := d.integer()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad JSON: integer %s out of range", tok)
	}
	return v, nil
}

func (d *decoder) uint64() (uint64, error) {
	tok, err := d.integer()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad JSON: unsigned integer %s out of range", tok)
	}
	return v, nil
}
