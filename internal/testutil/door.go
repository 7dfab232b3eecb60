package testutil

import (
	"bytes"
	"io"
	"net/http"
	"regexp"
	"testing"
)

// Answer is what a client sees of one HTTP answer, less what two servers
// may frame differently: the status, the headers without Date,
// Content-Length, Transfer-Encoding and Connection, and the body with its
// wall-clock fields ("queued_us", "total_us") zeroed.
type Answer struct {
	Status int
	Header http.Header
	Body   string
}

// timing matches the JSON members whose values are wall-clock durations.
var timing = regexp.MustCompile(`"(queued_us|total_us)":[0-9.e+-]+`)

// Exchange sends one request to the server at base ("http://host:port")
// and returns its Answer.
func Exchange(t testing.TB, c *http.Client, base, method, path, contentType string, body []byte) Answer {
	t.Helper()
	req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	h := resp.Header.Clone()
	for _, k := range []string{"Date", "Content-Length", "Transfer-Encoding", "Connection"} {
		delete(h, k)
	}
	return Answer{Status: resp.StatusCode, Header: h, Body: timing.ReplaceAllString(string(b), `"$1":0`)}
}
