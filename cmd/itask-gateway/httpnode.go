package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"itask/internal/gateway"
	"itask/internal/wire"
)

// httpNode adapts one itask-serve backend (identified by its base URL) to
// the gateway's node interfaces:
//
//	gateway.Node          ID is the base URL — stable, unique, and the same
//	                      on every gateway instance, so a fleet of gateways
//	                      in front of the same backends routes identically.
//	gateway.HealthNode    one GET /healthz per probe: 200 (ok or degraded) is
//	                      alive, anything else — including a refused
//	                      connection — counts toward ejection; the body's
//	                      epoch, on 200 and 503 alike, is the backend's
//	                      route epoch, its registry's content identity.
//	gateway.ChangeApplier one POST /v1/models/reload per publish: the shard
//	                      routes at its new versions before it answers, and
//	                      the answer's epoch is the content it then serves.
type httpNode struct {
	base string
	url  shardURL
	pool *connPool
	idle *idleConns // pool's connections to base
}

// newNode adapts the shard at base, sending through the app's pool.
func (a *app) newNode(base string) (*httpNode, error) {
	u, err := parseShardURL(base)
	if err != nil {
		return nil, err
	}
	return &httpNode{base: base, url: u, pool: a.pool, idle: a.pool.forShard(base)}, nil
}

func (n *httpNode) ID() string { return n.base }

// backendResponse is a fully-buffered backend answer ready to relay. body
// aliases buf, a pooled buffer the owner must release (once) after the
// relay is written — releasing is always safe because roundTrip only
// builds a backendResponse after reading the answer completely.
type backendResponse struct {
	status int
	// The answer's header values the gateway forwards.
	contentType, retryAfter, degraded, tenant string
	body                                      []byte
	buf                                       *wire.Buf
}

func (br *backendResponse) release() {
	br.buf.Release()
	br.buf, br.body = nil, nil
}

// forwardDetect relays one raw /v1/detect body to the backend and buffers
// its answer. Outcomes the caller should fail over from are returned as
// classified errors; every other status — including the backend's own 4xx
// and 5xx verdicts about the request content — is a pass-through response
// (retrying a content-fault on a successor would just spread it). hot is the
// gateway's fleet-wide hot-digest verdict, forwarded as X-Itask-Hot so the
// shard pre-promotes the digest in its in-process hot tier: the gateway sees
// the digest's whole arrival stream, while each of the replicas it spreads a
// hot digest across sees only a fraction of it. tenant is the request's
// accounting identity, forwarded as X-Itask-Tenant so a client that
// identified itself only by header to the gateway is still scheduled and
// budgeted under its own tenant on the shard (a "tenant" field in the body
// wins over the header at the shard, so forwarding is harmless then). body
// is the caller's again when forwardDetect returns: nothing reads it later.
func (n *httpNode) forwardDetect(ctx context.Context, body []byte, contentType string, hot bool, tenant string) (*backendResponse, error) {
	// The body is forwarded verbatim, so its declared encoding must travel
	// with it: a binary tensor frame relabeled as JSON would 400 at the
	// shard's door.
	if contentType == "" {
		contentType = "application/json"
	}
	hdrs := [3]header{{"Content-Type", contentType}}
	nh := 1
	if hot {
		hdrs[nh] = header{"X-Itask-Hot", "1"}
		nh++
	}
	if tenant != "" {
		hdrs[nh] = header{"X-Itask-Tenant", tenant}
		nh++
	}
	br, err := n.roundTrip(ctx, http.MethodPost, "/v1/detect", body, hdrs[:nh]...)
	if err != nil {
		return nil, err
	}
	switch br.status {
	case http.StatusTooManyRequests:
		// Admission backpressure: this shard's queue is full, a successor
		// may have room. The advertised horizon paces the failover.
		return br, &gateway.NodeError{
			Class:      gateway.ClassOverload,
			RetryAfter: parseRetryAfter(br.retryAfter),
			Err:        fmt.Errorf("%s: backend backpressure (429)", n.base),
		}
	case http.StatusServiceUnavailable:
		if br.retryAfter != "" {
			// An open breaker advertises a retry horizon — the node is up
			// but this lane is cooling; spill without penalizing it.
			return br, &gateway.NodeError{
				Class:      gateway.ClassOverload,
				RetryAfter: parseRetryAfter(br.retryAfter),
				Err:        fmt.Errorf("%s: breaker open (503)", n.base),
			}
		}
		// Plain 503 is draining or dead-to-serving: fail over and count it.
		return br, &gateway.NodeError{Class: gateway.ClassNodeDown, Err: fmt.Errorf("%s: backend unavailable (503)", n.base)}
	default:
		return br, nil
	}
}

// parseRetryAfter reads a Retry-After header in its delta-seconds form
// (what itask-serve emits). Unparseable values — including the HTTP-date
// form — yield 0: no hint, the jittered backoff alone paces the retry.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Health reads GET /healthz once. A failed exchange is down with no epoch;
// an answer is down unless it is a 200, and carries an epoch when its body
// has one.
func (n *httpNode) Health(ctx context.Context) (epoch uint64, hasEpoch bool, down error) {
	br, err := n.roundTrip(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return 0, false, err
	}
	defer br.release()
	if br.status != http.StatusOK {
		down = fmt.Errorf("%s: healthz %d", n.base, br.status)
	}
	epoch, hasEpoch = answerEpoch(br.body)
	return epoch, hasEpoch, down
}

// answerEpoch reads the route epoch a shard's /healthz or reload answer
// carries, if it has one.
func answerEpoch(body []byte) (uint64, bool) {
	var a struct {
		Epoch *uint64 `json:"epoch"`
	}
	if json.Unmarshal(body, &a) != nil || a.Epoch == nil {
		return 0, false
	}
	return *a.Epoch, true
}

// Publish drives a fleet-propagated model reload in one exchange: the
// payload is the raw /v1/models/reload body to relay (the endpoint both
// publishes new versions and re-verifies existing ones), and the answer
// carries the backend's route epoch after it.
func (n *httpNode) Publish(ctx context.Context, payload any) (uint64, error) {
	body, ok := payload.([]byte)
	if !ok {
		return 0, errors.New("reload payload must be the raw request body")
	}
	br, err := n.roundTrip(ctx, http.MethodPost, "/v1/models/reload", body, header{"Content-Type", "application/json"})
	if err != nil {
		return 0, err
	}
	defer br.release()
	if br.status != http.StatusOK {
		return 0, fmt.Errorf("%s: reload %d: %s", n.base, br.status, bytes.TrimSpace(br.body))
	}
	if epoch, ok := answerEpoch(br.body); ok {
		return epoch, nil
	}
	return 0, fmt.Errorf("%s: no route epoch in the reload answer", n.base)
}
