package cluster_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
)

// sameRequest reports whether a and b carry the same query bits, k, l,
// stats and filter bytes.
func sameRequest(a, b *cluster.SearchRequest) bool {
	return slices.EqualFunc(a.Query, b.Query, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) }) &&
		a.K == b.K && a.L == b.L && a.Stats == b.Stats && bytes.Equal(a.Filter, b.Filter)
}

// FuzzSearchCodec checks the JSON edge's codec against encoding/json. For
// any body, DecodeSearchRequest (into a request left over from another
// body) and json.Unmarshal (into a zero one) either both refuse it or agree
// on every field. A reply built from the decoded fields encodes to the bytes
// json.Encoder writes, and json.Unmarshal reads back its ids and distance
// bits.
func FuzzSearchCodec(f *testing.F) {
	for _, seed := range []string{
		`{"query":[1,2,3],"k":5,"l":20}`,
		`{"filter":{"col":"category","eq":"b"},"k":10,"l":60,"query":[0.5,-1.25e-7,3.4028235e+38]}`,
		` { "query" : [ 1 , 2 ] , "stats" : true , "filter" : [ "x\"]" , {"a":[]} ] } `,
		`{"query":[1],"filter":"a,b}","filter":7}`,
		`{"query":[1],"query":[2,3],"k":1,"k":2}`,
		`{"Query":[1],"K":3}`,
		`{"query":[1]}`,
		`{"query":[1],"k":null,"filter":null}`,
		`{"query":[null,1]}`,
		`{"query":[1],"other":{"x":[1,2]}}`,
		`{"query":[1e39]}`,
		`{"query":[1e-50,-0,0.0]}`,
		`{"query":[01]}`,
		`{"query":[1,]}`,
		`{"query":[1.]}`,
		`{"k":1.5}`,
		`{"k":1e2}`,
		`{"k":-0,"l":9223372036854775807}`,
		`{"l":9223372036854775808}`,
		`{"stats":1}`,
		`{"stats":tru}`,
		`{"filter":{"a":1}}}`,
		`{"filter":{"a":1} {"b":2}}`,
		`{"filter":"\"}`,
		`{}`,
		`{} x`,
		`[]`,
		`{`,
		``,
		"{\"query\":[1]}\x00",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got := cluster.SearchRequest{Query: make([]float32, 3, 8), K: 7, L: 9, Stats: true, Filter: []byte("{}")}
		var want cluster.SearchRequest
		gotErr := cluster.DecodeSearchRequest(body, &got)
		wantErr := json.Unmarshal(body, &want)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%q: codec error %v, encoding/json error %v", body, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if !sameRequest(&got, &want) {
			t.Fatalf("%q: codec read %+v, encoding/json %+v", body, got, want)
		}

		resp := cluster.SearchResponse{Dists: got.Query, Hops: got.K, DistComps: uint64(max(got.L, 0))}
		for _, d := range got.Query {
			resp.IDs = append(resp.IDs, int32(math.Float32bits(d)))
		}
		resp.Degraded = got.Stats
		if got.Stats {
			resp.Missing = []int{got.K, got.L}
		}
		out, err := cluster.AppendSearchResponse(nil, &resp)
		if err != nil {
			t.Fatal(err)
		}
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(&resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, enc.Bytes()) {
			t.Fatalf("codec wrote %s, encoding/json %s", out, enc.Bytes())
		}
		var back cluster.SearchResponse
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(back.IDs, resp.IDs) || !sameRequest(&cluster.SearchRequest{Query: back.Dists}, &cluster.SearchRequest{Query: resp.Dists}) {
			t.Fatalf("%s read back as %v %v", out, back.IDs, back.Dists)
		}
	})
}

// TestAppendSearchResponseFloats writes distances across float32's range,
// where encoding/json switches between plain and exponent forms, and
// checks the bytes and the bits read back.
func TestAppendSearchResponseFloats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	resp := cluster.SearchResponse{IDs: []int32{}, Dists: []float32{0, 1e-6, 9.999999e-7, 1e21, 9.999999e20, math.MaxFloat32, math.SmallestNonzeroFloat32, -1e-7}}
	for range 2000 {
		resp.Dists = append(resp.Dists, math.Float32frombits(rng.Uint32()&^(0xff<<23)|uint32(rng.Intn(255))<<23))
	}
	resp.IDs = make([]int32, len(resp.Dists))
	out, err := cluster.AppendSearchResponse(nil, &resp)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(&resp)
	if !bytes.Equal(out, append(want, '\n')) {
		t.Fatalf("codec and encoding/json disagree:\n%s\n%s", out, want)
	}
	var back cluster.SearchResponse
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	for i, d := range back.Dists {
		if math.Float32bits(d) != math.Float32bits(resp.Dists[i]) {
			t.Fatalf("distance %d: %v read back as %v", i, resp.Dists[i], d)
		}
	}
	if _, err := cluster.AppendSearchResponse(nil, &cluster.SearchResponse{IDs: []int32{1}, Dists: []float32{float32(math.Inf(1))}}); err == nil {
		t.Fatal("an infinite distance was encoded")
	}
}
