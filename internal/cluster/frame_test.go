package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"testing"
)

// rawRequest builds a request payload field by field, so a test can make the
// fields disagree with each other in ways appendRequest never would.
func rawRequest(k, l int32, dim, filterLen uint32, query []uint32, filter string) []byte {
	le := binary.LittleEndian
	p := le.AppendUint32(nil, uint32(k))
	p = le.AppendUint32(p, uint32(l))
	p = le.AppendUint32(p, dim)
	p = le.AppendUint32(p, filterLen)
	for _, bits := range query {
		p = le.AppendUint32(p, bits)
	}
	return append(p, filter...)
}

func framed(payload []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// TestServeFramesRejectsMalformed: every malformed shape a raw float32 frame
// can take (and JSON could not) is answered with a 400 error frame before the
// handler runs, and the stream still carries the next, valid, frame.
func TestServeFramesRejectsMalformed(t *testing.T) {
	one := math.Float32bits(1)
	cases := []struct {
		name  string
		frame []byte
	}{
		{"nan", framed(rawRequest(5, 10, 2, 0, []uint32{one, 0x7fc00000}, ""))},
		{"plus-inf", framed(rawRequest(5, 10, 2, 0, []uint32{0x7f800000, one}, ""))},
		{"minus-inf", framed(rawRequest(5, 10, 2, 0, []uint32{one, 0xff800000}, ""))},
		{"dim-over-length", framed(rawRequest(5, 10, 3, 0, []uint32{one, one}, ""))},
		{"dim-under-length", framed(rawRequest(5, 10, 1, 0, []uint32{one, one}, ""))},
		{"dim-huge", framed(rawRequest(5, 10, math.MaxUint32, 0, []uint32{one, one}, ""))},
		{"filter-over-length", framed(rawRequest(5, 10, 2, 9, []uint32{one, one}, `{"a":1}`))},
		{"filter-under-length", framed(rawRequest(5, 10, 2, 3, []uint32{one, one}, `{"a":1}`))},
		{"negative-k", framed(rawRequest(-1, 10, 2, 0, []uint32{one, one}, ""))},
		{"negative-l", framed(rawRequest(5, -7, 2, 0, []uint32{one, one}, ""))},
		{"short-header", framed([]byte{1, 2, 3})},
		{"empty", framed(nil)},
		{"over-cap", append(binary.LittleEndian.AppendUint32(nil, MaxFrameBytes+1), make([]byte, MaxFrameBytes+1)...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			client, server := net.Pipe()
			defer client.Close()
			calls := 0
			served := make(chan error, 1)
			go func() {
				served <- ServeFrames(server, func(req *SearchRequest) ([]int32, []float32, error) {
					calls++
					return []int32{int32(req.K)}, []float32{req.Query[0]}, nil
				})
			}()
			good := appendRequest(nil, &SearchRequest{Query: []float32{3, 4}, K: 7, L: 9, Filter: []byte(`{"x":1}`)})
			go client.Write(tc.frame)
			fr := frameReader{r: client}
			payload, err := fr.next()
			if err != nil {
				t.Fatal(err)
			}
			var re *ReplicaError
			if _, err := reply(payload); !errors.As(err, &re) || re.Status != http.StatusBadRequest {
				t.Fatalf("malformed frame answered %v, want a 400 error frame", err)
			}
			if calls != 0 {
				t.Fatal("the handler ran on a malformed frame")
			}
			go client.Write(good)
			if payload, err = fr.next(); err != nil {
				t.Fatalf("stream unusable after the error frame: %v", err)
			}
			resp, err := reply(payload)
			if err != nil || !slices.Equal(resp.IDs, []int32{7}) || !slices.Equal(resp.Dists, []float32{3}) {
				t.Fatalf("frame after the malformed one answered %+v, %v", resp, err)
			}
			client.Close()
			if err := <-served; err != nil && !errors.Is(err, io.ErrClosedPipe) {
				t.Fatalf("ServeFrames returned %v after the peer closed", err)
			}
		})
	}
}

// TestServeFramesHandlerErrors: a handler's *ReplicaError keeps its status, any
// other error is a 500, and mismatched result lengths never reach the wire as
// an answer.
func TestServeFramesHandlerErrors(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	go ServeFrames(server, func(req *SearchRequest) ([]int32, []float32, error) {
		switch req.K {
		case 1:
			return nil, nil, BadRequest("unknown column %q", "bad")
		case 2:
			return nil, nil, errors.New("disk on fire")
		case 3:
			return []int32{1, 2}, []float32{1}, nil
		}
		return nil, nil, nil
	})
	fr := frameReader{r: client}
	for k, want := range map[int]int{1: 400, 2: 500, 3: 500} {
		go client.Write(appendRequest(nil, &SearchRequest{Query: []float32{1}, K: k}))
		payload, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		var re *ReplicaError
		if _, err := reply(payload); !errors.As(err, &re) || re.Status != want || re.Msg == "" {
			t.Fatalf("k=%d answered %v, want status %d with a message", k, err, want)
		}
	}
	go client.Write(appendRequest(nil, &SearchRequest{Query: []float32{1}, K: 4}))
	payload, err := fr.next()
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := reply(payload); err != nil || len(resp.IDs) != 0 {
		t.Fatalf("empty answer decoded as %+v, %v", resp, err)
	}
}

// TestParseReplyShortPayload: a reply whose count and length disagree is an
// error, never the results that happened to arrive.
func TestParseReplyShortPayload(t *testing.T) {
	whole := appendReply(nil, []int32{1, 2, 3}, []float32{1, 2, 3})[4:]
	if resp, err := reply(whole); err != nil || len(resp.IDs) != 3 {
		t.Fatalf("whole reply: %+v, %v", resp, err)
	}
	for cut := 1; cut < len(whole); cut++ {
		if resp, err := reply(whole[:len(whole)-cut]); err == nil {
			t.Fatalf("reply cut by %d bytes decoded as %+v", cut, resp)
		}
	}
	lying := slices.Clone(whole)
	binary.LittleEndian.PutUint32(lying[1:], 10) // claims 10 results, carries 3
	if resp, err := reply(lying); err == nil {
		t.Fatalf("reply claiming 10 results with 3 present decoded as %+v", resp)
	}
	big := make([]int32, 40) // beyond the inline block
	if resp, err := reply(appendReply(nil, big, make([]float32, 40))[4:]); err != nil || len(resp.IDs) != 40 || len(resp.Dists) != 40 {
		t.Fatalf("40-result reply: %+v, %v", resp, err)
	}
}

// FuzzFrames drives both parsers and the serving loop with arbitrary bytes:
// they must never panic or read past their input, whatever parses must
// re-encode to exactly the bytes it came from, and whatever the loop writes
// must be whole reply frames.
func FuzzFrames(f *testing.F) {
	f.Add(appendRequest(nil, &SearchRequest{Query: []float32{1, -2.5, 0}, K: 10, L: 60})[4:])
	f.Add(appendRequest(nil, &SearchRequest{Query: []float32{7}, Filter: []byte(`{"col":"category","eq":"shoes"}`)})[4:])
	f.Add(appendReply(nil, []int32{3, 1, 2}, []float32{0, 0.5, 9})[4:])
	f.Add(appendReply(nil, nil, nil)[4:])
	f.Add(appendErrorReply(nil, BadRequest("query dim 2 != index dim 128"))[4:])
	f.Add(appendRequest(appendRequest(nil, &SearchRequest{Query: []float32{1}, K: 1}), &SearchRequest{Query: []float32{2}, K: 2}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SearchRequest
		if err := parseRequest(data, &req); err == nil {
			if again := appendRequest(nil, &req)[4:]; !bytes.Equal(again, data) {
				t.Fatalf("request %x re-encodes to %x", data, again)
			}
			for _, v := range req.Query {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("non-finite query value %v accepted", v)
				}
			}
		}
		resp, err := reply(data)
		var re *ReplicaError
		switch {
		case err == nil:
			if again := appendReply(nil, resp.IDs, resp.Dists)[4:]; !bytes.Equal(again, data) {
				t.Fatalf("reply %x re-encodes to %x", data, again)
			}
		case errors.As(err, &re) && len(re.Msg) <= 1<<10:
			if again := appendErrorReply(nil, re)[4:]; !bytes.Equal(again, data) {
				t.Fatalf("error reply %x re-encodes to %x", data, again)
			}
		}

		// The same bytes as a stream of frames.
		var out bytes.Buffer
		served := ServeFrames(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(data), &out}, func(req *SearchRequest) ([]int32, []float32, error) {
			return []int32{int32(len(req.Query))}, []float32{float32(len(req.Filter))}, nil
		})
		if served != nil && !errors.Is(served, io.ErrUnexpectedEOF) {
			t.Fatalf("ServeFrames over a byte stream returned %v", served)
		}
		fr := frameReader{r: &out}
		for {
			payload, err := fr.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("ServeFrames wrote a broken frame: %v", err)
			}
			if _, err := reply(payload); err != nil && !errors.As(err, &re) {
				t.Fatalf("ServeFrames wrote an unparseable reply: %v", err)
			}
		}
	})
}

// reply is parseReply into a fresh answer.
func reply(payload []byte) (*SearchResponse, error) {
	resp := new(SearchResponse)
	if err := parseReply(payload, resp); err != nil {
		return nil, err
	}
	return resp, nil
}
