package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"itask/internal/gateway"
	"itask/internal/rcache"
	"itask/internal/tensor"
	"itask/internal/wire"
)

// twinBodies builds a JSON /v1/detect image body and its binary tensor-frame
// twin: same task, same shape, same float values bit for bit.
func twinBodies(t testing.TB, task string, seed int64) (jsonBody, binBody []byte) {
	t.Helper()
	const size = 8
	r := rand.New(rand.NewSource(seed))
	data := make([]float32, 3*size*size)
	for i := range data {
		data[i] = r.Float32()
	}
	jsonBody, err := json.Marshal(map[string]any{
		"task":  task,
		"image": map[string]any{"shape": []int{3, size, size}, "data": data},
	})
	if err != nil {
		t.Fatal(err)
	}
	binBody = wire.AppendFrame(nil, task, "", 0, [3]int{3, size, size}, data)
	return jsonBody, binBody
}

// routeKeyFrame derives routing identity from the frame header and a digest
// of the raw payload — no tensor is ever built. Its keys must be the same
// ones routeKey derives from the JSON twin (but for the task, which a
// digested key does not carry), and garbage must degrade to the task-less
// zero key.
func TestRouteKeyFrameDerivation(t *testing.T) {
	jsonBody, binBody := twinBodies(t, "patrol", 3)

	k := routeKeyFrame(binBody)
	if k.Task != "" || !k.HasDigest { // a digested key is placed by its digest alone
		t.Fatalf("frame mis-keyed: %+v", k)
	}
	fr, err := wire.ParseFrame(binBody)
	if err != nil {
		t.Fatal(err)
	}
	if want := rcache.DigestFrame(fr.Shape[:], fr.Payload); k.Digest != want {
		t.Fatalf("frame digest %x, want DigestFrame %x", k.Digest, want)
	}
	if jk := routeKey(jsonBody); jk != (gateway.Key{Digest: k.Digest, HasDigest: true, Task: "patrol"}) {
		t.Fatalf("JSON twin keys differently: %+v vs %+v", jk, k)
	}

	// Tenant travels into the key.
	withTenant := wire.AppendFrame(nil, "patrol", "acme", 0, [3]int{3, 8, 8}, make([]float32, 3*8*8))
	if k := routeKeyFrame(withTenant); k.Tenant != "acme" {
		t.Fatalf("frame tenant not keyed: %+v", k)
	}

	// Unparseable bodies yield the zero key (the caller 400s on JSON-side
	// validation or lets the shard render the verdict).
	for _, bad := range [][]byte{nil, []byte("iTSK"), binBody[:40], []byte(`{"task":"patrol"}`)} {
		if k := routeKeyFrame(bad); k != (gateway.Key{}) {
			t.Fatalf("garbage frame %q produced key %+v", bad, k)
		}
	}
}

// A binary frame and its JSON twin must land on the same shard: the gateway
// digests the frame payload without materializing a tensor, and that digest
// equals the one the JSON path computes from the built image.
func TestDetectBinaryBodyRoutesLikeJSONTwin(t *testing.T) {
	_, front := newTestApp(t, passiveCfg(), newFakeBackend("b0"), newFakeBackend("b1"), newFakeBackend("b2"))

	post := func(body []byte, contentType string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(front.URL+"/v1/detect", contentType, strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(b)
	}

	distinct := map[string]bool{}
	for seed := int64(0); seed < 12; seed++ {
		jsonBody, binBody := twinBodies(t, "patrol", seed)
		jr, jb := post(jsonBody, "application/json")
		if jr.StatusCode != http.StatusOK {
			t.Fatalf("seed %d JSON: status %d: %s", seed, jr.StatusCode, jb)
		}
		br, bb := post(binBody, wire.ContentType)
		if br.StatusCode != http.StatusOK {
			t.Fatalf("seed %d binary: status %d: %s", seed, br.StatusCode, bb)
		}
		js, bs := jr.Header.Get("X-Itask-Shard"), br.Header.Get("X-Itask-Shard")
		if js == "" || js != bs {
			t.Fatalf("seed %d: JSON shard %q, binary shard %q — twins diverged", seed, js, bs)
		}
		if !strings.Contains(bb, `"task":"patrol"`) {
			t.Fatalf("binary body not relayed through the backend: %s", bb)
		}
		distinct[js] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("12 distinct frames all routed to one shard: %v", distinct)
	}
}

// Two doors, one verdict: the gateway keys a JSON body off the same decode
// the shard validates (wire.ParseDetect is the shard's parse, not a copy of
// it), so a digest it routes on is the digest of the tensor the shard
// builds, and a body the shard's decoder refuses gets no key at all — in
// particular never a digest of content the shard would not see (the first of
// two "data" members, bytes before trailing garbage).
func TestRouteKeyAgreesWithShardVerdict(t *testing.T) {
	const size = 8
	valid, _ := twinBodies(t, "patrol", 9)
	other, _ := twinBodies(t, "patrol", 10)
	data := string(valid[bytes.Index(valid, []byte(`"data":`))+len(`"data":`) : bytes.Index(valid, []byte(`,"shape"`))])
	otherData := string(other[bytes.Index(other, []byte(`"data":`))+len(`"data":`) : bytes.Index(other, []byte(`,"shape"`))])
	// Bodies the shard serves, or refuses on their meaning (wrong size for
	// this shard, both image and scene, ...): the gateway may key the latter
	// too, on what they say.
	readable := []string{
		string(valid),
		`{"task":"patrol","tenant":"acme","timeout_ms":50,"image":{"shape":[3,8,8],"data":` + data + `}}`,
		` {"IMAGE" : {"Shape":[3,8,8], "DATA":` + data + `}, "Task":"patrol", "note":{"data":[1,2]}} `,
		`{"task":"patrol","image":{"shape":[3,8,8],"data":` + data + `,"extra":null}}`,
		sceneBody("patrol", 7), sceneBody("inspect", 7),
		`{"task":"patrol","tenant":"acme","scene":{"domain":"driving","seed":18446744073709551615}}`,
		`{"TASK":"patrol","Scene":{"Domain":"driving","SEED":3}}`,
		`{"task":"patrol","scene":{"domain":"atlantis","seed":1}}`,
		`{"task":"patrol"}`, `{"scene":{"domain":"driving"}}`, `{}`, `null`,
		`{"task":"patrol","image":{"shape":[3,4,4],"data":` + strings.Repeat("0,", 47) + `0]}}`,
		`{"task":"patrol","image":{"shape":[3,8,8],"data":[1,2,3]}}`,
		`{"task":"patrol","image":{"data":` + data + `}}`,
		`{"task":"patrol","image":{"shape":[3,8,8],"data":` + data + `},"scene":{"domain":"driving"}}`,
		`{"task":"patrol","timeout_ms":-1,"image":{"shape":[3,8,8],"data":` + data + `}}`,
	}
	// Bodies the decoder itself refuses: the shard says 400 and the gateway
	// must have keyed nothing.
	refused := []string{
		`{"task":"patrol","image":{"shape":[3,8,8],"data":` + data + `,"data":` + otherData + `}}`,
		`{"task":"patrol","image":{"shape":[3,8,8],"data":` + data + `,"DATA":` + otherData + `}}`,
		`{"task":"patrol","image":{"shape":[3,8,8],"data":` + data + `},"image":{"shape":[3,8,8],"data":` + otherData + `}}`,
		`{"task":"patrol","task":"inspect","scene":{"domain":"driving","seed":7}}`,
		`{"task":"patrol","Task":"inspect","scene":{"domain":"driving","seed":7}}`,
		`{"task":"patrol","scene":{"domain":"driving","seed":7,"seed":8}}`,
		string(valid) + `garbage`, string(valid) + string(other), sceneBody("patrol", 7) + `]`,
		`{"task":"patrol","image":{"shape":[3,8,8,1],"data":` + data + `}}`,
		`{"task":"patrol","image":{"shape":[3,8.0,8],"data":` + data + `}}`,
		`{"task":"patrol","image":{"shape":[3,-8,-8],"data":` + data + `}}`,
		`{"task":"patrol","tenant":"acme","image":{"shape":[3,0,0],"data":[]}}`,
		`{"task":"patrol","image":{"shape":[3,8,8],"data":[1e39]}}`,
		"{\"task\":\"pa\xfftrol\",\"scene\":{\"domain\":\"driving\"}}",
		`{"task":"\ud83d","scene":{"domain":"driving"}}`,
		`{"task":"patrol"`, `not json`, ``, `[1,2,3]`,
	}
	digests := 0
	for _, body := range readable {
		k := routeKey([]byte(body))
		dr, err := wire.ParseDetect("application/json", []byte(body), size)
		switch {
		case err == nil && dr.Image != nil:
			digests++
			img := tensor.FromSlice(dr.Image.Data, 3, size, size) // as the shard's buildImage does
			if !k.HasDigest || k.Digest != rcache.DigestImage(img) || k.Task != dr.Task || k.Tenant != dr.Tenant {
				t.Errorf("%.80q: key %+v, shard tensor digests to %x for %q/%q", body, k, rcache.DigestImage(img), dr.Task, dr.Tenant)
			}
		case err == nil:
			if !k.HasDigest || k.Task != dr.Task || k.Tenant != dr.Tenant {
				t.Errorf("%.80q: scene keyed %+v, shard read %q/%q", body, k, dr.Task, dr.Tenant)
			}
		case k.HasDigest:
			// Refused on meaning, keyed all the same. An independent reader
			// (encoding/json) must find the same task and tenant in the body,
			// and when it holds an image and no scene, the image digested.
			var ref wire.DetectBody
			if jerr := json.Unmarshal([]byte(body), &ref); jerr != nil || k.Task != ref.Task || k.Tenant != ref.Tenant {
				t.Errorf("%.80q: key %+v, encoding/json reads %q/%q (%v)", body, k, ref.Task, ref.Tenant, jerr)
			} else if ref.Image != nil && ref.Scene == nil && k.Digest != rcache.DigestPixels(ref.Image.Shape, ref.Image.Data) {
				t.Errorf("%.80q: key digest %x is not of the image the body holds", body, k.Digest)
			}
		}
	}
	if digests < 4 {
		t.Fatalf("only %d corpus bodies reached the image-digest comparison", digests)
	}
	for _, body := range refused {
		_, err := wire.ParseDetect("application/json", []byte(body), size)
		if k := routeKey([]byte(body)); err == nil || k != (gateway.Key{}) {
			t.Errorf("%.80q: shard err=%v, gateway key %+v; want a 400 and no key", body, err, k)
		}
	}

	// Keying allocates what the decode allocates (the body, its task, the
	// pixels) and nothing to hash them: no tensor is built — whichever of
	// shape and data the client put first.
	shapeFirst := []byte(`{"task":"patrol","image":{"shape":[3,8,8],"data":` + data + `}}`)
	for _, body := range [][]byte{shapeFirst, valid} {
		if n := testing.AllocsPerRun(100, func() { _ = routeKey(body) }); n > 3 {
			t.Errorf("routeKey allocates %.0f objects for %.40q, want <= 3", n, body)
		}
	}
}

// BenchmarkServeIngress measures the gateway's routing-key derivation for a
// JSON image body versus its binary twin. The binary path reads the frame
// header and digests raw payload words in place — no JSON decode, no tensor.
func BenchmarkServeIngress(b *testing.B) {
	const size = 32
	r := rand.New(rand.NewSource(5))
	data := make([]float32, 3*size*size)
	for i := range data {
		data[i] = r.Float32()
	}
	jsonBody, err := json.Marshal(map[string]any{
		"task":  "patrol",
		"image": map[string]any{"shape": []int{3, size, size}, "data": data},
	})
	if err != nil {
		b.Fatal(err)
	}
	binBody := wire.AppendFrame(nil, "patrol", "", 0, [3]int{3, size, size}, data)

	b.Run("routekey_json", func(b *testing.B) {
		b.SetBytes(int64(len(jsonBody)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if k := routeKey(jsonBody); !k.HasDigest {
				b.Fatal("no digest")
			}
		}
	})
	b.Run("routekey_binary", func(b *testing.B) {
		b.SetBytes(int64(len(binBody)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if k := routeKeyFrame(binBody); !k.HasDigest {
				b.Fatal("no digest")
			}
		}
	})
}
