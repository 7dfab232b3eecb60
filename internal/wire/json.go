package wire

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
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
	if err := e.enc.Encode(v); err != nil {
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
