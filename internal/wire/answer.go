package wire

import (
	"bufio"
	"bytes"
)

// answer.go: the answer-head reader of the gateway's shard relay. The
// common answer head — an HTTP/1.1 status line whose status allows a body,
// plain header lines, one Content-Length of plain digits and no
// Transfer-Encoding — is read in place from the connection's buffered
// reader and discarded from it only once read; any other head is left as
// it arrived for http.ReadResponse, so only the common subset is this
// file's to get right (the gateway's FuzzRelayAnswer holds it to
// ReadResponse).

// AnswerHead is what the relay reads of an answer's head: the status, the
// body's length, whether the answer asked to close, and the header values
// the gateway forwards, each as http.Header.Get reads it. A value equal to the one the AnswerHead held
// keeps its string, so one reused for a connection's answers allocates
// nothing for the values that repeat.
type AnswerHead struct {
	Status        int
	ContentLength int64
	Close         bool

	ContentType, RetryAfter, Degraded, Tenant string
}

// ReadAnswerHead reads the common answer head at the front of br into h,
// reading more of br's source while the head has not all arrived. It
// reports false, with h and br's unread bytes as they were, for any other
// head, one that does not fit br's buffer, or a read that fails before the
// head's end: http.ReadResponse then reads the head, or meets the failure,
// itself.
func ReadAnswerHead(br *bufio.Reader, h *AnswerHead) bool {
	head, ok := peekHead(br)
	if !ok {
		return false
	}
	nl := bytes.IndexByte(head, '\n')
	line := trimCR(head[:nl])
	// ReadResponse's status line: the version, a space, three digits, and
	// the line's end or a space before the reason.
	if len(line) < 12 || string(line[:9]) != "HTTP/1.1 " || len(line) > 12 && line[12] != ' ' {
		return false
	}
	status := 0
	for _, c := range line[9:12] {
		if c < '0' || c > '9' {
			return false
		}
		status = status*10 + int(c-'0')
	}
	if !bodyAllowed(status) {
		return false // its body is empty whatever the head declares
	}

	length, closing := int64(-1), false
	var vals [4][]byte // Content-Type, Retry-After, X-Itask-Degraded, X-Itask-Tenant
	var seen [4]bool
	for lines := head[nl+1:]; ; {
		k, v, rest, end, ok := nextField(lines)
		if !ok {
			return false
		}
		if end {
			break
		}
		lines = rest
		// The key is canonicalized in a copy, leaving br's bytes as they
		// arrived for ReadResponse. No key read here is longer than it.
		var kb [len("Transfer-Encoding")]byte
		if len(k) > len(kb) {
			if !isToken(k) {
				return false
			}
			continue
		}
		key := kb[:copy(kb[:], k)]
		if !canonicalKey(key) {
			return false
		}
		var i int
		switch string(key) {
		case "Content-Length":
			n, ok := plainLength(v)
			if !ok || length >= 0 {
				return false
			}
			length = n
			continue
		case "Transfer-Encoding":
			return false
		case "Connection":
			closing = closing || listHasToken(string(v), "close")
			continue
		case "Content-Type":
			i = 0
		case "Retry-After":
			i = 1
		case "X-Itask-Degraded":
			i = 2
		case "X-Itask-Tenant":
			i = 3
		default:
			continue
		}
		if !seen[i] {
			seen[i], vals[i] = true, v
		}
	}

	if length < 0 {
		return false // the body runs to the connection's close
	}
	h.Status, h.ContentLength, h.Close = status, length, closing
	h.ContentType = reuse(h.ContentType, vals[0])
	h.RetryAfter = reuse(h.RetryAfter, vals[1])
	h.Degraded = reuse(h.Degraded, vals[2])
	h.Tenant = reuse(h.Tenant, vals[3])
	_, _ = br.Discard(len(head))
	return true
}

// peekHead returns the head at the front of br through its blank line,
// leaving it unread.
func peekHead(br *bufio.Reader) ([]byte, bool) {
	for n := 1; n <= br.Size(); n = br.Buffered() + 1 {
		if _, err := br.Peek(n); err != nil {
			return nil, false
		}
		b, _ := br.Peek(br.Buffered())
		if end := headLen(b); end > 0 {
			return b[:end], true
		}
	}
	return nil, false
}

// headLen returns the length of the head at the front of b through its
// blank line, or 0 while the blank line has not arrived.
func headLen(b []byte) int {
	for i := 0; ; {
		j := bytes.IndexByte(b[i:], '\n')
		if j < 0 {
			return 0
		}
		i += j + 1
		switch {
		case i < len(b) && b[i] == '\n':
			return i + 1
		case i+1 < len(b) && b[i] == '\r' && b[i+1] == '\n':
			return i + 2
		}
	}
}

// reuse returns old when it holds v's bytes, else v as a new string.
func reuse(old string, v []byte) string {
	if old == string(v) {
		return old
	}
	return string(v)
}
