package wire

import (
	"bufio"
	"bytes"
	"net/http"
	"net/textproto"
	"net/url"
	"strconv"
	"strings"
)

// head.go: the door server's request-head reader. A head reads exactly as
// net/http.Server reads it — http.ReadRequest, then the server's own checks
// (HTTP/1.x only, a Host line on HTTP/1.1, a valid Host, token header
// names). The common head — an origin-form target that needs no unescaping,
// HTTP/1.0 or 1.1, one plain line per header, no Transfer-Encoding, Trailer
// or Pragma, at most one Content-Length of plain digits — is read in place
// into one reused *http.Request; anything else goes to http.ReadRequest
// itself, so only the common subset is this file's to get right
// (FuzzDoorRequestHead holds it to ReadRequest).

// maxInterned is how many header lines per request keep their key and
// value strings from one request to the next on a connection.
const maxInterned = 32

// headError is a head the door refuses, with the status net/http.Server
// answers it with.
type headError struct {
	code int
	msg  string // after the status text; empty for a bare status
}

func (e *headError) Error() string {
	s := strconv.Itoa(e.code) + " " + http.StatusText(e.code)
	if e.msg != "" {
		s += ": " + e.msg
	}
	return s
}

var (
	errHeadTooLarge = &headError{code: http.StatusRequestHeaderFieldsTooLarge}
	errBadRequest   = &headError{code: http.StatusBadRequest}
)

// headParser turns request heads into one reused *http.Request. Strings a
// connection's requests repeat — the target, header keys and values at the
// same line — are kept from the last request instead of allocated again.
type headParser struct {
	req  *http.Request // the request every head fills
	tmpl http.Request  // what each head starts from: the context, RemoteAddr
	url  url.URL
	hdr  http.Header

	keys   [maxInterned]string
	vals   [maxInterned]string // each in-place header value slice is one element
	host   string              // the Host line's value
	method string              // the last method
	uri    string              // the last target, Path and RawQuery slice it

	hostLines int  // Host lines in the head
	chunked   bool // the body is chunked
	inPlace   bool // parseInPlace read the head: its keys are tokens
}

// newHeadParser returns a parser filling a request that carries tmpl's
// context and remote address.
func newHeadParser(tmpl *http.Request) *headParser {
	return &headParser{req: tmpl, tmpl: *tmpl, hdr: make(http.Header)}
}

// parse reads head, which ends at its blank line, into p.req. It may
// canonicalize header keys in place.
func (p *headParser) parse(head []byte) error {
	*p.req = p.tmpl
	if p.inPlace = p.parseInPlace(head); !p.inPlace {
		if err := p.parseReadRequest(head); err != nil {
			return errBadRequest
		}
	}
	return p.check()
}

// check is net/http.Server's own refusal of a head ReadRequest accepted.
func (p *headParser) check() error {
	r := p.req
	if r.ProtoMajor != 1 {
		return &headError{code: http.StatusHTTPVersionNotSupported, msg: "unsupported protocol version"}
	}
	if r.ProtoMinor >= 1 && p.hostLines == 0 && r.Method != http.MethodConnect {
		return &headError{code: http.StatusBadRequest, msg: "missing required Host header"}
	}
	if p.hostLines == 1 && !validHost(p.host) {
		return &headError{code: http.StatusBadRequest, msg: "malformed Host header"}
	}
	if !p.inPlace {
		for k := range r.Header {
			if !isToken(k) {
				return &headError{code: http.StatusBadRequest, msg: "invalid header name"}
			}
		}
	}
	return nil
}

// parseInPlace reads the common head without a copy, reporting false —
// having set nothing a later parse depends on — for any head outside it.
func (p *headParser) parseInPlace(head []byte) bool {
	nl := bytes.IndexByte(head, '\n')
	line := trimCR(head[:nl])
	sp := bytes.IndexByte(line, ' ')
	if sp <= 0 {
		return false
	}
	method, rest := line[:sp], line[sp+1:]
	sp = bytes.IndexByte(rest, ' ')
	if sp < 0 || !isToken(method) {
		return false
	}
	target := rest[:sp]
	var minor int
	switch string(rest[sp+1:]) {
	case "HTTP/1.1":
		minor = 1
	case "HTTP/1.0":
	default:
		return false
	}
	q := bytes.IndexByte(target, '?')
	path, query := target, target[:0]
	if q >= 0 {
		path, query = target[:q], target[q+1:]
	}
	if len(path) == 0 || path[0] != '/' {
		return false
	}
	for _, b := range path {
		if !pathByte(b) {
			return false
		}
	}
	for _, b := range query {
		if b <= ' ' || b >= 0x7f {
			return false
		}
	}

	clear(p.hdr)
	p.hostLines = 0
	contentLength, haveLength := int64(0), false
	head = head[nl+1:]
	for i := 0; ; {
		k, v, rest, end, ok := nextField(head)
		if !ok {
			return false
		}
		if end {
			break
		}
		if !canonicalKey(k) {
			return false
		}
		head = rest
		key := p.internKey(i, k)
		switch key {
		case "Transfer-Encoding", "Trailer", "Pragma":
			return false
		case "Host":
			if p.hostLines++; p.hostLines > 1 {
				return false
			}
			if p.host != string(v) {
				p.host = string(v)
			}
			i++ // its key keeps its slot, not the next line's
			continue
		case "Content-Length":
			n, ok := plainLength(v)
			if haveLength || !ok {
				return false
			}
			contentLength, haveLength = n, true
		}
		var val string
		if i < maxInterned && p.vals[i] == string(v) {
			val = p.vals[i] // the last request's string at this line
		} else {
			val = string(v)
		}
		if vv, ok := p.hdr[key]; ok {
			p.hdr[key] = append(vv, val)
		} else if i < maxInterned {
			p.vals[i] = val
			p.hdr[key] = p.vals[i : i+1 : i+1]
		} else {
			p.hdr[key] = []string{val}
		}
		i++
	}

	r := p.req
	if p.method != string(method) {
		p.method = string(method)
	}
	r.Method = p.method
	if p.uri != string(target) {
		p.uri = string(target)
	}
	r.RequestURI = p.uri
	p.url = url.URL{Path: p.uri[:len(path)], ForceQuery: q >= 0 && len(query) == 0}
	if q >= 0 {
		p.url.RawQuery = p.uri[q+1:]
	}
	r.URL = &p.url
	r.Proto, r.ProtoMajor, r.ProtoMinor = "HTTP/1.0", 1, minor
	if minor == 1 {
		r.Proto = "HTTP/1.1"
	}
	r.Header = p.hdr
	r.Host = p.host
	if p.hostLines == 0 {
		r.Host = ""
	}
	r.Close = shouldClose(minor, p.hdr["Connection"])
	r.ContentLength = contentLength
	p.chunked = false
	return true
}

// parseReadRequest reads any head with http.ReadRequest. The Host lines
// ReadRequest drops are read again for the server's checks.
func (p *headParser) parseReadRequest(head []byte) error {
	req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(head)))
	if err != nil {
		return err
	}
	tp := textproto.NewReader(bufio.NewReader(bytes.NewReader(head)))
	_, _ = tp.ReadLine()
	mh, _ := tp.ReadMIMEHeader() // ReadRequest read the same lines
	hosts := mh["Host"]
	p.hostLines, p.host = len(hosts), ""
	if len(hosts) > 0 {
		p.host = hosts[0]
	}
	r := p.req
	r.Method, r.RequestURI = req.Method, req.RequestURI
	r.Proto, r.ProtoMajor, r.ProtoMinor = req.Proto, req.ProtoMajor, req.ProtoMinor
	p.url = *req.URL
	r.URL = &p.url
	r.Header, r.Host, r.Close = req.Header, req.Host, req.Close
	r.ContentLength, r.TransferEncoding, r.Trailer = req.ContentLength, req.TransferEncoding, req.Trailer
	p.chunked = len(req.TransferEncoding) > 0
	return nil
}

// internKey returns the canonical key k as a string, the last request's
// string for it at line i when it is the same.
func (p *headParser) internKey(i int, k []byte) string {
	if i < maxInterned && p.keys[i] == string(k) {
		return p.keys[i]
	}
	s := string(k)
	if i < maxInterned {
		p.keys[i] = s
	}
	return s
}

// nextField reads the header line at the front of lines, a head's section
// after its start line that runs through the blank line ending it. It
// returns the line's key, its value with the blanks around it trimmed, and
// the lines after it; end reports the blank line. ok is false for a line
// outside the plain form, which textproto reads otherwise or refuses: a
// continuation or the line it continues, no colon, an empty key, a control
// byte in the value. Whether the key is a token is the caller's to check.
func nextField(lines []byte) (key, value, rest []byte, end, ok bool) {
	nl := bytes.IndexByte(lines, '\n')
	line := trimCR(lines[:nl])
	rest = lines[nl+1:]
	if len(line) == 0 {
		return nil, nil, rest, true, true
	}
	// A leading blank opens a continuation (or, first, is malformed), as
	// does one at the start of the next line.
	if line[0] == ' ' || line[0] == '\t' || len(rest) > 0 && (rest[0] == ' ' || rest[0] == '\t') {
		return nil, nil, nil, false, false
	}
	colon := bytes.IndexByte(line, ':')
	if colon <= 0 {
		return nil, nil, nil, false, false
	}
	value = line[colon+1:]
	for _, b := range value {
		if !valueByte(b) {
			return nil, nil, nil, false, false
		}
	}
	return line[:colon], trimOWS(value), rest, false, true
}

// shouldClose is ReadRequest's req.Close for an HTTP/1.x request.
func shouldClose(minor int, conn []string) bool {
	if containsToken(conn, "close") {
		return true
	}
	return minor == 0 && !containsToken(conn, "keep-alive")
}

// containsToken reports whether any comma-separated element of values is
// token, ASCII case-insensitively.
func containsToken(values []string, token string) bool {
	for _, v := range values {
		if listHasToken(v, token) {
			return true
		}
	}
	return false
}

// listHasToken reports whether any comma-separated element of v is token,
// ASCII case-insensitively: net/http's rule for a Connection value.
func listHasToken(v, token string) bool {
	for len(v) > 0 {
		elem := v
		if c := strings.IndexByte(v, ','); c >= 0 {
			elem, v = v[:c], v[c+1:]
		} else {
			v = ""
		}
		if asciiEqualFold(strings.Trim(elem, " \t"), token) {
			return true
		}
	}
	return false
}

// hasToken is net/http's test of a header value for a token: a
// case-insensitive match bounded by space, tab, comma or the ends.
func hasToken(v, token string) bool {
	for sp := 0; sp+len(token) <= len(v); sp++ {
		if sp > 0 && !tokenBoundary(v[sp-1]) {
			continue
		}
		if end := sp + len(token); end != len(v) && !tokenBoundary(v[end]) {
			continue
		}
		if asciiEqualFold(v[sp:sp+len(token)], token) {
			return true
		}
	}
	return false
}

func tokenBoundary(b byte) bool { return b == ' ' || b == ',' || b == '\t' }

func asciiEqualFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		x, y := a[i], b[i]
		if 'A' <= x && x <= 'Z' {
			x += 'a' - 'A'
		}
		if 'A' <= y && y <= 'Z' {
			y += 'a' - 'A'
		}
		if x != y {
			return false
		}
	}
	return true
}

// plainLength parses a Content-Length of 1 to 18 digits, which
// strconv.ParseUint(v, 10, 63) reads to the same value.
func plainLength(v []byte) (int64, bool) {
	if len(v) == 0 || len(v) > 18 {
		return 0, false
	}
	var n int64
	for _, b := range v {
		if b < '0' || b > '9' {
			return 0, false
		}
		n = n*10 + int64(b-'0')
	}
	return n, true
}

// canonicalKey canonicalizes a header key in place, as textproto does,
// reporting false for an empty key or one with a byte outside the token
// set.
func canonicalKey(k []byte) bool {
	if len(k) == 0 {
		return false
	}
	upper := true
	for i, c := range k {
		if !tokenByte(c) {
			return false
		}
		if upper && 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		} else if !upper && 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		k[i] = c
		upper = c == '-'
	}
	return true
}

// tokenByte reports whether c may appear in an RFC 7230 token.
func tokenByte(c byte) bool {
	return c < 0x80 && tokenTable[c]
}

var tokenTable = func() (t [128]bool) {
	for c := '0'; c <= '9'; c++ {
		t[c] = true
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = true, true
	}
	for _, c := range "!#$%&'*+-.^_`|~" {
		t[c] = true
	}
	return t
}()

// isToken reports whether b is a non-empty RFC 7230 token.
func isToken[T string | []byte](b T) bool {
	for i := 0; i < len(b); i++ {
		if !tokenByte(b[i]) {
			return false
		}
	}
	return len(b) > 0
}

// valueByte reports whether textproto accepts c in a header value: any
// byte but the controls other than tab.
func valueByte(c byte) bool {
	return c >= ' ' && c != 0x7f || c == '\t'
}

// pathByte reports whether c stands in a URL path as it is: the bytes
// url.ParseRequestURI neither unescapes nor records a RawPath for.
func pathByte(c byte) bool {
	switch {
	case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		return true
	}
	switch c {
	case '-', '_', '.', '~', '$', '&', '+', ',', '/', ':', ';', '=', '@':
		return true
	}
	return false
}

// validHost is net/http's Host check: every byte one a host, port, IPv6
// literal or zone may hold.
func validHost(h string) bool {
	for i := 0; i < len(h); i++ {
		c := h[i]
		if 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' {
			continue
		}
		switch c {
		case '!', '$', '%', '&', '(', ')', '*', '+', ',', '-', '.', ':', ';', '=', '[', '\'', ']', '_', '~':
			continue
		}
		return false
	}
	return true
}

func trimCR(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}

// trimOWS trims spaces and tabs from both ends.
func trimOWS(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}
