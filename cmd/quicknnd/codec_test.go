package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/degrade"
)

// The codec's oracle is encoding/json: json.Unmarshal into frameRequest
// or searchRequest, plus the one documented tightening json.Unmarshal
// does not already make (it refuses trailing data itself): every point
// or query is exactly three JSON numbers.

func toPoints(triples [][3]float32) []quicknn.Point {
	pts := make([]quicknn.Point, len(triples))
	for i, t := range triples {
		pts[i] = quicknn.Point{X: t[0], Y: t[1], Z: t[2]}
	}
	return pts
}

// jsonFrame decodes a /v1/frame body the oracle's way.
func jsonFrame(body []byte) ([]quicknn.Point, error) {
	var req frameRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	if err := strictTriples(body, "points"); err != nil {
		return nil, err
	}
	return toPoints(req.Points), nil
}

// jsonSearch decodes a /v1/search body the oracle's way.
func jsonSearch(body []byte) (searchRequest, []quicknn.Point, error) {
	var req searchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return req, nil, err
	}
	if err := strictTriples(body, "queries"); err != nil {
		return req, nil, err
	}
	pts := toPoints(req.Queries)
	req.Queries = nil
	return req, pts, nil
}

// strictTriples walks an already-accepted body with json.Decoder's
// tokenizer and refuses any value of field (matched as encoding/json
// matches keys) whose elements are not arrays of exactly three numbers.
// Every occurrence counts, duplicates included.
func strictTriples(body []byte, field string) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return err // a top-level null
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return err
		}
		if !strings.EqualFold(tok.(string), field) {
			continue
		}
		var elems []json.RawMessage
		if err := json.Unmarshal(raw, &elems); err != nil {
			return err
		}
		for i, e := range elems {
			var coords []json.RawMessage
			if err := json.Unmarshal(e, &coords); err != nil || len(coords) != 3 {
				return fmt.Errorf("%s[%d] is %s, not three numbers", field, i, e)
			}
			for _, c := range coords {
				if c[0] != '-' && !isDigit(c[0]) {
					return fmt.Errorf("%s[%d] is %s, not three numbers", field, i, e)
				}
			}
		}
	}
	return nil
}

// samePoints compares bit for bit, so -0 and 0 differ.
func samePoints(a, b []quicknn.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for _, pair := range [3][2]float32{{a[i].X, b[i].X}, {a[i].Y, b[i].Y}, {a[i].Z, b[i].Z}} {
			if math.Float32bits(pair[0]) != math.Float32bits(pair[1]) {
				return false
			}
		}
	}
	return true
}

// nested returns an object whose unknown key holds n nested arrays: the
// body's nesting depth is n+1.
func nested(n int) []byte {
	return []byte(`{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`)
}

// codecSeeds are shared by both decode fuzz targets and the table test,
// each with whether the frame and the search decoder accept it (the
// shapes skip each other's keys); testdata/fuzz holds more.
type codecSeed struct {
	body          string
	frame, search bool // whether each decoder accepts body
}

var codecSeeds = []codecSeed{
	{`{"points":[[1,2,3],[-0.5,4e2,1E-3]]}`, true, true},
	{`{"k":8,"mode":"approx","queries":[[1,2,3]],"strict":true}`, true, true},
	{`{"queries":[[1,2,3]],"k":4,"mode":"checks","checks":64,"radius":1.5,"timeout_ms":20}`, true, true},
	{` null `, true, true},
	{`{}`, true, true},
	{`{"points":null}`, true, true},
	{`{"points":[[1,2]]}`, false, true},
	{`{"points":[[1,2,3,4]]}`, false, true},
	{`{"points":[null]}`, false, true},
	{`{"queries":[[1,null,3]]}`, true, false},
	{`{"points":[[1,2,3]]} x`, false, false},
	{`{"points":[[1,2,3]],"points":[[4,5,6]]}`, true, true},
	{`{"Points":[[1,2,3]],"POINTS":null}`, true, true},
	{`{"p\u006fints":[[1,2,3]]}`, true, true},
	{`{"K":5,"ſtrict":true,"MODE":"exact"}`, true, true},
	{`{"mode":"approx","extra":{"a":[1,{"b":null}],"c":"😀\ud800"}}`, true, true},
	{`{"k":8.0}`, true, false},
	{`{"k":1e1}`, true, false},
	{`{"k":-0,"checks":9223372036854775807}`, true, true},
	{`{"k":9223372036854775808}`, true, false},
	{`{"radius":1e400}`, true, false},
	{`{"points":[[1e39,0,0]]}`, false, true},
	{`{"points":[[3.4028235e38,1e-45,-0]]}`, true, true},
	{`{"points":[[01,2,3]]}`, false, false},
	{`{"points":[[1.,2,3]]}`, false, false},
	{`{"points":[[1,2,3]`, false, false},
	{`{"k":null,"mode":null,"strict":null,"radius":null}`, true, true},
	{`{"mode":5}`, true, false},
	{`{"strict":"true"}`, true, false},
	{"{\"mode\":\"a\x01\"}", false, false},
	{"{\"mode\":\"\xff\"}", true, true},
	{`{"mode":"\'"}`, false, false},
	{`[]`, false, false},
	{``, false, false},
}

func FuzzDecodeFrame(f *testing.F) {
	for _, seed := range codecSeeds {
		f.Add([]byte(seed.body))
	}
	f.Add(nested(5)) // the depth limit itself is pinned by TestDecodeAgreesWithJSON
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodeFrame(body, nil)
		want, wantErr := jsonFrame(body)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("body %q: codec err %v, encoding/json err %v", body, err, wantErr)
		}
		if err == nil && !samePoints(got, want) {
			t.Fatalf("body %q: codec %v, encoding/json %v", body, got, want)
		}
	})
}

func FuzzDecodeSearch(f *testing.F) {
	for _, seed := range codecSeeds {
		f.Add([]byte(seed.body))
	}
	f.Add(nested(5)) // the depth limit itself is pinned by TestDecodeAgreesWithJSON
	f.Fuzz(func(t *testing.T, body []byte) {
		var req searchRequest
		got, err := decodeSearch(body, &req, nil)
		wantReq, want, wantErr := jsonSearch(body)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("body %q: codec err %v, encoding/json err %v", body, err, wantErr)
		}
		if err != nil {
			return
		}
		if !samePoints(got, want) {
			t.Fatalf("body %q: codec queries %v, encoding/json %v", body, got, want)
		}
		if req.K != wantReq.K || req.Mode != wantReq.Mode || req.Checks != wantReq.Checks ||
			math.Float64bits(req.Radius) != math.Float64bits(wantReq.Radius) ||
			req.TimeoutMillis != wantReq.TimeoutMillis || req.Strict != wantReq.Strict {
			t.Fatalf("body %q: codec %+v, encoding/json %+v", body, req, wantReq)
		}
	})
}

// TestDecodeAgreesWithJSON runs the seeds as a table, pinning which ones
// each decoder accepts, so the oracle cannot drift with the codec.
func TestDecodeAgreesWithJSON(t *testing.T) {
	seeds := append(codecSeeds[:len(codecSeeds):len(codecSeeds)],
		codecSeed{string(nested(maxNesting - 1)), true, true},
		codecSeed{string(nested(maxNesting)), false, false})
	for _, seed := range seeds {
		body := []byte(seed.body)
		var req searchRequest
		_, frameErr := decodeFrame(body, nil)
		_, searchErr := decodeSearch(body, &req, nil)
		_, oracleFrameErr := jsonFrame(body)
		_, _, oracleSearchErr := jsonSearch(body)
		name := seed.body
		if len(name) > 40 {
			name = name[:40] + "..."
		}
		if (frameErr == nil) != seed.frame || (oracleFrameErr == nil) != seed.frame {
			t.Errorf("frame %q: codec %v, encoding/json %v; want accepted = %v", name, frameErr, oracleFrameErr, seed.frame)
		}
		if (searchErr == nil) != seed.search || (oracleSearchErr == nil) != seed.search {
			t.Errorf("search %q: codec %v, encoding/json %v; want accepted = %v", name, searchErr, oracleSearchErr, seed.search)
		}
	}
	// Spot-check decoded values where folding and escapes matter.
	var req searchRequest
	if _, err := decodeSearch([]byte(`{"K":5,"ſtrict":true,"MODE":"approx"}`), &req, nil); err != nil ||
		req.K != 5 || !req.Strict || req.Mode != "approx" {
		t.Errorf("folded keys decoded to %+v, %v; want k 5, strict, mode approx", req, err)
	}
	req = searchRequest{}
	if _, err := decodeSearch([]byte(`{"mode":"\ud800xé"}`), &req, nil); err != nil || req.Mode != "�xé" {
		t.Errorf("lone surrogate decoded to %q, %v; want %q", req.Mode, err, "�xé")
	}
}

// TestDecodeTightenings pins the two places the codec refuses what
// json.Decoder.Decode into frameRequest, the decoder it replaced, accepts.
func TestDecodeTightenings(t *testing.T) {
	for _, body := range []string{
		`{"points":[[1,2]]}`,
		`{"points":[[1,2,3,4]]}`,
		`{"points":[null]}`,
		`{"points":[[1,2,3]]} {"points":[]}`,
		`{"points":[[1,2,3]]}]`,
	} {
		var old frameRequest
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&old); err != nil {
			t.Fatalf("%s: json.Decoder refuses it too (%v): not a tightening", body, err)
		}
		if _, err := decodeFrame([]byte(body), nil); err == nil {
			t.Errorf("%s: codec accepts it, want refused", body)
		}
	}
}

// replyRecords turns fuzz bytes into neighbour records, 24 bytes each:
// index (int32), x, y, z (float32 bits), dist_sq (float64 bits).
func replyRecords(nq int, data []byte) [][]quicknn.Neighbor {
	results := make([][]quicknn.Neighbor, nq)
	for i := 0; nq > 0 && len(data) >= 24; i++ {
		le := func(b []byte) uint64 {
			var v uint64
			for j := len(b) - 1; j >= 0; j-- {
				v = v<<8 | uint64(b[j])
			}
			return v
		}
		nb := quicknn.Neighbor{
			Index: int(int32(le(data[0:4]))),
			Point: quicknn.Point{
				X: math.Float32frombits(uint32(le(data[4:8]))),
				Y: math.Float32frombits(uint32(le(data[8:12]))),
				Z: math.Float32frombits(uint32(le(data[12:16]))),
			},
			DistSq: math.Float64frombits(le(data[16:24])),
		}
		results[i%nq] = append(results[i%nq], nb)
		data = data[24:]
	}
	return results
}

// jsonReply is the reply as the handler built it before the codec: a
// searchResponse through json.NewEncoder.
func jsonReply(epoch uint64, results [][]quicknn.Neighbor, level degrade.Level) ([]byte, error) {
	resp := searchResponse{Epoch: epoch, Results: make([][]neighborJSON, len(results))}
	if level > degrade.LevelNone {
		resp.DegradeLevel = int(level)
		resp.Degrade = level.String()
	}
	for qi, nbrs := range results {
		out := make([]neighborJSON, len(nbrs))
		for i, nb := range nbrs {
			out[i] = neighborJSON{Index: nb.Index, Point: [3]float32{nb.Point.X, nb.Point.Y, nb.Point.Z}, DistSq: nb.DistSq}
		}
		resp.Results[qi] = out
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(resp)
	return buf.Bytes(), err
}

// record packs one neighbour as replyRecords reads it.
func record(index int32, x, y, z float32, dist float64) []byte {
	var b []byte
	put := func(v uint64, n int) {
		for j := 0; j < n; j++ {
			b = append(b, byte(v>>(8*j)))
		}
	}
	put(uint64(uint32(index)), 4)
	put(uint64(math.Float32bits(x)), 4)
	put(uint64(math.Float32bits(y)), 4)
	put(uint64(math.Float32bits(z)), 4)
	put(math.Float64bits(dist), 8)
	return b
}

func FuzzEncodeSearchReply(f *testing.F) {
	negZero := float32(math.Copysign(0, -1))
	f.Add(uint64(7), uint8(0), uint8(2), append(record(3, 1.5, negZero, 2.25, 0.0625),
		record(12, 1e-7, 1e21, -math.MaxFloat32, 1e-7)...))
	f.Add(uint64(1), uint8(2), uint8(1), append(record(-1, math.SmallestNonzeroFloat32, 9.99e-7, 1e-6, math.SmallestNonzeroFloat64),
		record(1<<30, 1e20, 0.1, 123456.79, 1e21)...))
	f.Add(uint64(math.MaxUint64), uint8(3), uint8(0), []byte{})
	f.Add(uint64(0), uint8(5), uint8(3), record(0, float32(math.NaN()), 0, 0, 0))
	f.Add(uint64(2), uint8(1), uint8(1), record(0, 0, 0, 0, math.Inf(1)))
	f.Fuzz(func(t *testing.T, epoch uint64, level, queries uint8, data []byte) {
		results := replyRecords(int(queries%5), data)
		lvl := degrade.Level(level % 6)
		got, err := appendSearchReply(nil, epoch, results, lvl)
		want, wantErr := jsonReply(epoch, results, lvl)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("codec err %v, encoding/json err %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("reply bytes differ:\ncodec %s\njson  %s", got, want)
		}
	})
}

// TestSearchReplyGolden pins /v1/search reply bytes, undegraded and
// degraded, to what encoding/json wrote for them before the codec.
func TestSearchReplyGolden(t *testing.T) {
	nbr := func(i int, x, y, z float32, d float64) quicknn.Neighbor {
		return quicknn.Neighbor{Index: i, Point: quicknn.Point{X: x, Y: y, Z: z}, DistSq: d}
	}
	results := [][]quicknn.Neighbor{
		{
			nbr(3, 1.5, float32(math.Copysign(0, -1)), 2.25, 0.0625),
			nbr(12, 1e-7, 1e21, -math.MaxFloat32, 1e-7),
			nbr(40, math.SmallestNonzeroFloat32, 0.1, 123456.79, math.SmallestNonzeroFloat64),
		},
		{},
		{nbr(7, -12.345, 1e20, 9.99e-7, 1e21)},
	}
	const body = `"results":[[{"index":3,"point":[1.5,-0,2.25],"dist_sq":0.0625},` +
		`{"index":12,"point":[1e-7,1e+21,-3.4028235e+38],"dist_sq":1e-7},` +
		`{"index":40,"point":[1e-45,0.1,123456.79],"dist_sq":5e-324}],[],` +
		`[{"index":7,"point":[-12.345,100000000000000000000,9.99e-7],"dist_sq":1e+21}]]`
	for _, tc := range []struct {
		epoch   uint64
		results [][]quicknn.Neighbor
		level   degrade.Level
		want    string
	}{
		{7, results, degrade.LevelNone, `{"epoch":7,` + body + "}\n"},
		{8, results, degrade.LevelForceChecks, `{"epoch":8,` + body + `,"degrade_level":2,"degrade":"force-checks"}` + "\n"},
		{9, [][]quicknn.Neighbor{}, degrade.LevelNone, `{"epoch":9,"results":[]}` + "\n"},
	} {
		got, err := appendSearchReply(nil, tc.epoch, tc.results, tc.level)
		if err != nil || string(got) != tc.want {
			t.Errorf("epoch %d: reply (%v)\n got %s\nwant %s", tc.epoch, err, got, tc.want)
		}
	}
	for lvl := degrade.LevelNone; lvl <= degrade.LevelShed+1; lvl++ {
		got, _ := appendSearchReply(nil, 1, results, lvl)
		want, _ := jsonReply(1, results, lvl)
		if !bytes.Equal(got, want) {
			t.Errorf("level %v: reply\n got %s\nwant %s", lvl, got, want)
		}
	}
}

// wireBodies are a 1,000-point frame body and a perfbench-shaped 64-query
// search body, both as encoding/json writes them.
func wireBodies(tb testing.TB) (frame, search []byte, pts []quicknn.Point) {
	tb.Helper()
	pts = quicknn.SyntheticFrames(1000, 1, 1)[0]
	triples := make([][3]float32, len(pts))
	for i, p := range pts {
		triples[i] = [3]float32{p.X, p.Y, p.Z}
	}
	frame, err := json.Marshal(frameRequest{Points: triples})
	if err != nil {
		tb.Fatal(err)
	}
	search, err = json.Marshal(map[string]any{"queries": triples[:64], "k": 8, "mode": "approx", "strict": true})
	if err != nil {
		tb.Fatal(err)
	}
	return frame, search, pts
}

// TestCodecZeroAllocs guards the codec's own cost: decoding either body
// and encoding a 64×8 reply into buffers of sufficient capacity allocate
// nothing beyond those buffers.
func TestCodecZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	frame, search, pts := wireBodies(t)
	var buf []quicknn.Point
	var err error
	if allocs := testing.AllocsPerRun(50, func() {
		if buf, err = decodeFrame(frame, buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("frame decode: %v allocs/op, want 0", allocs)
	}
	if !samePoints(buf, pts) {
		t.Fatal("frame decode does not round-trip the points")
	}
	var req searchRequest
	if allocs := testing.AllocsPerRun(50, func() {
		req = searchRequest{}
		if buf, err = decodeSearch(search, &req, buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("search decode: %v allocs/op, want 0", allocs)
	}
	if len(buf) != 64 || req.K != 8 || req.Mode != "approx" || !req.Strict {
		t.Fatalf("search decode = %d queries, %+v", len(buf), req)
	}
	results := make([][]quicknn.Neighbor, 64)
	for qi := range results {
		for i := 0; i < 8; i++ {
			results[qi] = append(results[qi], quicknn.Neighbor{Index: qi*8 + i, Point: pts[qi*8+i], DistSq: float64(pts[i].X) * 0.37})
		}
	}
	var out []byte
	if allocs := testing.AllocsPerRun(50, func() {
		if out, err = appendSearchReply(out[:0], 3, results, degrade.LevelClampK); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("reply encode: %v allocs/op, want 0", allocs)
	}
}

// TestReadBodyLimit covers the streamed path of the body ceiling: with no
// Content-Length, the read stops at the limit with *http.MaxBytesError.
func TestReadBodyLimit(t *testing.T) {
	for _, tc := range []struct {
		n       int
		tooBig  bool
		declare bool
	}{{16, false, false}, {17, true, false}, {16, false, true}, {17, true, true}} {
		r := httptest.NewRequest(http.MethodPost, "/v1/frame", io.LimitReader(zeros{}, int64(tc.n)))
		if !tc.declare {
			r.ContentLength = -1
		}
		got, err := readBody(httptest.NewRecorder(), r, 16)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) != tc.tooBig || (!tc.tooBig && (err != nil || len(got) != tc.n)) {
			t.Errorf("%d-byte body (Content-Length declared: %v) under a 16-byte limit: %d bytes, %v",
				tc.n, tc.declare, len(got), err)
		}
	}
}

// zeros is an endless reader of '0' bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

// TestBodyTooLargeOnTheWire posts a body declared one byte over
// maxBodyBytes to both hot routes: each answers 413 with the too_large
// envelope without reading it.
func TestBodyTooLargeOnTheWire(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/v1/frame", "/v1/search"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, io.LimitReader(zeros{}, maxBodyBytes+1))
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = maxBodyBytes + 1
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		var env errorResponse
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusRequestEntityTooLarge || env.Code != "too_large" {
			t.Errorf("%s with a %d-byte body = (%d, %+v, %v), want (413, too_large)",
				path, maxBodyBytes+1, resp.StatusCode, env, err)
		}
	}
}

// TestSearchReplyOnTheWire checks the live /v1/search reply against
// encoding/json: decoding it and re-encoding it with json.NewEncoder
// gives back the same bytes, and Content-Length counts them.
func TestSearchReplyOnTheWire(t *testing.T) {
	_, ts := newTestServer(t)
	ingestFrame(t, ts, 900, 2)
	for _, body := range []string{
		`{"k":8,"mode":"approx","queries":[[1,2,2],[40.5,33.25,2],[7,7,7]],"strict":true}`,
		`{"queries":[[1,2,2]],"mode":"radius","radius":3}`,
		`{"queries":[]}`,
		`null`,
	} {
		resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s (%v)", body, resp.StatusCode, raw, err)
		}
		if resp.ContentLength != int64(len(raw)) {
			t.Errorf("%s: Content-Length %d for %d bytes", body, resp.ContentLength, len(raw))
		}
		var sr searchResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatalf("%s: reply %s: %v", body, raw, err)
		}
		var again bytes.Buffer
		if err := json.NewEncoder(&again).Encode(sr); err != nil || !bytes.Equal(again.Bytes(), raw) {
			t.Errorf("%s: reply\n got %s\nwant %s", body, raw, again.Bytes())
		}
	}
}

// TestTighteningsOnTheWire checks that the codec's refusals reach the
// client as 400 bad_request envelopes on both routes.
func TestTighteningsOnTheWire(t *testing.T) {
	_, ts := newTestServer(t)
	ingestFrame(t, ts, 300, 1)
	for path, bodies := range map[string][]string{
		"/v1/frame":  {`{"points":[[1,2]]}`, `{"points":[[1,2,3]]} {}`, `{"points":[[1,2,3]],"k":1e1}x`},
		"/v1/search": {`{"queries":[[1,2,3,4]]}`, `{"queries":[null]}`, `{"k":8.0,"queries":[[1,2,3]]}`},
	} {
		for _, body := range bodies {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var env errorResponse
			err = json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusBadRequest || env.Code != "bad_request" {
				t.Errorf("%s %s = (%d, %+v, %v), want (400, bad_request)", path, body, resp.StatusCode, env, err)
			}
		}
	}
	// A null frame is the empty frame, as it was under encoding/json.
	resp, err := http.Post(ts.URL+"/v1/frame", "application/json", strings.NewReader(`{"points":null}`))
	if err != nil {
		t.Fatal(err)
	}
	var env errorResponse
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusBadRequest || env.Code != "empty_input" {
		t.Errorf(`{"points":null} = (%d, %+v, %v), want (400, empty_input)`, resp.StatusCode, env, err)
	}
}

// The benchmark pairs price the codec against the encoding/json path it
// replaced, on a 30,000-point SyntheticFrames frame and a 64×8 reply
// (docs/performance.md, "Wire codec").

func benchFrame(b *testing.B) []byte {
	pts := quicknn.SyntheticFrames(30000, 1, 1)[0]
	triples := make([][3]float32, len(pts))
	for i, p := range pts {
		triples[i] = [3]float32{p.X, p.Y, p.Z}
	}
	body, err := json.Marshal(frameRequest{Points: triples})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	return body
}

func BenchmarkWireFrameDecodeJSON(b *testing.B) {
	body := benchFrame(b)
	for i := 0; i < b.N; i++ {
		var req frameRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			b.Fatal(err)
		}
		_ = toPoints(req.Points)
	}
}

func BenchmarkWireFrameDecodeCodec(b *testing.B) {
	body := benchFrame(b)
	var pts []quicknn.Point
	for i := 0; i < b.N; i++ {
		var err error
		if pts, err = decodeFrame(body, pts); err != nil {
			b.Fatal(err)
		}
	}
}

func benchReply(b *testing.B) [][]quicknn.Neighbor {
	pts := quicknn.SyntheticFrames(1000, 1, 1)[0]
	results := make([][]quicknn.Neighbor, 64)
	for qi := range results {
		for i := 0; i < 8; i++ {
			p := pts[qi*8+i]
			results[qi] = append(results[qi], quicknn.Neighbor{Index: qi*8 + i, Point: p, DistSq: float64(p.X*p.X) / 97})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	return results
}

func BenchmarkWireSearchEncodeJSON(b *testing.B) {
	results := benchReply(b)
	for i := 0; i < b.N; i++ {
		if _, err := jsonReply(5, results, degrade.LevelNone); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireSearchEncodeCodec(b *testing.B) {
	results := benchReply(b)
	var out []byte
	for i := 0; i < b.N; i++ {
		var err error
		if out, err = appendSearchReply(out[:0], 5, results, degrade.LevelNone); err != nil {
			b.Fatal(err)
		}
	}
}
