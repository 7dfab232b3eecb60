package main

import (
	"strconv"

	"itask"
	"itask/internal/wire"
)

type detectResponse struct {
	Task      string  `json:"task"`
	Model     string  `json:"model"`
	BatchSize int     `json:"batch_size"`
	QueuedUS  float64 `json:"queued_us"`
	TotalUS   float64 `json:"total_us"`
	// Degraded is set when the request was served by the quantized
	// fallback because its preferred lane's circuit breaker was open.
	Degraded string `json:"degraded,omitempty"`
	// Cached marks a response served from the result cache; Coalesced one
	// produced by a concurrent duplicate's execution.
	Cached     bool              `json:"cached,omitempty"`
	Coalesced  bool              `json:"coalesced,omitempty"`
	Detections []itask.Detection `json:"detections"`
	// answers, when set, memoizes the encoded Detections: the handler sets
	// it for a result-cache hit, whose payload is cached and immutable.
	answers *answerMemo
}

// appendJSON appends r's JSON to dst without reflection, byte for byte what
// json.Encoder writes for it (less the trailing newline): the field tags
// above, Detection's untagged field names, encoding/json's float and string
// forms (wire.AppendJSONFloat, wire.AppendJSONString). A NaN or infinite
// float is an error, as it is to encoding/json.
// TestDetectResponseMatchesEncodingJSON holds the two encodings together.
func (r *detectResponse) appendJSON(dst []byte) ([]byte, error) {
	e := jsonAppender{b: dst}
	e.str(`{"task":`, r.Task)
	e.str(`,"model":`, r.Model)
	e.int(`,"batch_size":`, r.BatchSize)
	e.float(`,"queued_us":`, r.QueuedUS)
	e.float(`,"total_us":`, r.TotalUS)
	if r.Degraded != "" {
		e.str(`,"degraded":`, r.Degraded)
	}
	if r.Cached {
		e.raw(`,"cached":true`)
	}
	if r.Coalesced {
		e.raw(`,"coalesced":true`)
	}
	if r.Detections == nil {
		e.raw(`,"detections":null`)
	} else {
		e.raw(`,"detections":`)
		e.detections(r.Detections, r.answers)
	}
	e.raw("}")
	return e.b, e.err
}

// jsonAppender appends JSON members, each a literal key followed by a value,
// keeping the first error a float reported.
type jsonAppender struct {
	b   []byte
	err error
}

// detections appends dets as a JSON array. With a memo, the array is
// appended from it when it holds dets, and stored in it when it does not
// and every float encoded.
func (e *jsonAppender) detections(dets []itask.Detection, memo *answerMemo) {
	if memo != nil {
		if b, ok := memo.get(dets); ok {
			e.b = append(e.b, b...)
			return
		}
	}
	start := len(e.b)
	e.raw("[")
	for i := range dets {
		d := &dets[i]
		if i > 0 {
			e.raw(",")
		}
		e.float(`{"Box":{"X":`, d.Box.X)
		e.float(`,"Y":`, d.Box.Y)
		e.float(`,"W":`, d.Box.W)
		e.float(`,"H":`, d.Box.H)
		e.str(`},"Class":`, d.Class)
		e.int(`,"ClassID":`, d.ClassID)
		e.float(`,"Score":`, d.Score)
		e.float(`,"Relevance":`, d.Relevance)
		e.raw("}")
	}
	e.raw("]")
	if memo != nil && e.err == nil {
		memo.put(dets, e.b[start:])
	}
}

func (e *jsonAppender) raw(s string) { e.b = append(e.b, s...) }

func (e *jsonAppender) str(key, v string) {
	e.b = wire.AppendJSONString(append(e.b, key...), v)
}

func (e *jsonAppender) int(key string, v int) {
	e.b = strconv.AppendInt(append(e.b, key...), int64(v), 10)
}

func (e *jsonAppender) float(key string, v float64) {
	var err error
	if e.b, err = wire.AppendJSONFloat(append(e.b, key...), v); err != nil && e.err == nil {
		e.err = err
	}
}
