package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// jsonEnc is a pooled encoder: the bytes.Buffer absorbs the encoded body
// (its backing array survives pool round-trips, so steady-state responses
// allocate only what encoding/json itself needs for the value), and the
// json.Encoder is bound to it once instead of per response.
type jsonEnc struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonEncPool = sync.Pool{New: func() any {
	e := &jsonEnc{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// jsonEncMaxRetain bounds the buffer capacity a pooled encoder keeps: a
// one-off giant response (a full metrics snapshot of a huge fleet) must not
// pin megabytes in the pool forever.
const jsonEncMaxRetain = 1 << 20

// WriteJSON encodes v through a pooled encoder and writes it as one
// response with Content-Type: application/json — the single JSON response
// path both HTTP doors route every handler through, so the header is set
// consistently on success and error responses alike.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	e := jsonEncPool.Get().(*jsonEnc)
	e.buf.Reset()
	e.write(w, code, e.enc.Encode(v))
}

// WriteAppendedJSON is WriteJSON for a value that encodes itself:
// appendJSON appends the value's JSON to the pooled buffer, byte for byte
// what json.Encoder would write for it, without reflection. An error (a
// NaN or infinite float, as AppendJSONFloat reports) gets WriteJSON's 500.
func WriteAppendedJSON(w http.ResponseWriter, code int, appendJSON func(dst []byte) ([]byte, error)) {
	e := jsonEncPool.Get().(*jsonEnc)
	e.buf.Reset()
	b, err := appendJSON(e.buf.AvailableBuffer())
	if err == nil {
		e.buf.Write(append(b, '\n')) // json.Encoder ends every value with a newline
	}
	e.write(w, code, err)
}

// write sends the encoded body, or, when encoding failed, the 500 that
// says so, and returns the encoder to the pool.
func (e *jsonEnc) write(w http.ResponseWriter, code int, err error) {
	if err != nil {
		// The value itself refused to encode (a handler bug, not a client
		// condition). Nothing has been written yet, so say so cleanly.
		e.buf.Reset()
		e.buf.WriteString(`{"error":"response encoding failed"}` + "\n")
		code = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(e.buf.Bytes())
	if e.buf.Cap() <= jsonEncMaxRetain {
		jsonEncPool.Put(e)
	}
}

// WriteError answers with the error shape every door uses: {"error": msg}.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}

// errUnsupportedFloat is AppendJSONFloat's refusal of a NaN or an infinity,
// which JSON cannot express.
var errUnsupportedFloat = errors.New("wire: NaN or infinite float in a JSON response")

// AppendJSONFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in 'f' form unless |f| is below 1e-6 or at least
// 1e21, where it takes 'e' form with a one-digit negative exponent left
// unpadded (1e-7, not 1e-07).
func AppendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, errUnsupportedFloat
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// AppendJSONString appends s as a JSON string the way json.Encoder writes
// it (HTML escaping on). Printable ASCII other than the quote, the
// backslash and <, >, & is copied as it stands; anything else — control
// bytes, non-ASCII, invalid UTF-8, U+2028 — is left to encoding/json.
func AppendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always encodes
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
