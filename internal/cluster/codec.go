package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/vecmath"
)

// Edge is one POST /search exchange, pooled: the body read, the request
// decoded from it (Req.Filter aliases the body), the answer to encode and a
// neighbor buffer for the router's merge. An answer's ids start non-nil, so
// an empty one encodes as [], not null.
type Edge struct {
	Req       SearchRequest
	Resp      SearchResponse
	Neighbors []vecmath.Neighbor
	body, out []byte
}

var edges = sync.Pool{New: func() any { return &Edge{Resp: SearchResponse{IDs: []int32{}, Dists: []float32{}}} }}

// ServeSearch answers POST /search on nsgserve and nsgrouter: it reads the
// body, at most MaxFrameBytes, into a pooled Edge, decodes e.Req, and
// writes the e.Resp that answer fills, unless answer refused the request
// itself (returning false) or e.Resp holds a distance JSON cannot carry.
func ServeSearch(w http.ResponseWriter, r *http.Request, answer func(http.ResponseWriter, *http.Request, *Edge) bool) {
	e := edges.Get().(*Edge)
	defer func() {
		e.Req = SearchRequest{Query: e.Req.Query[:0]}
		e.Resp = SearchResponse{IDs: e.Resp.IDs[:0], Dists: e.Resp.Dists[:0]}
		edges.Put(e)
	}()
	b := bytes.NewBuffer(e.body[:0])
	_, err := b.ReadFrom(http.MaxBytesReader(w, r.Body, MaxFrameBytes))
	if e.body = b.Bytes(); err == nil {
		err = DecodeSearchRequest(e.body, &e.Req)
	}
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if !answer(w, r, e) {
		return
	}
	if e.out, err = AppendSearchResponse(e.out[:0], &e.Resp); err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(e.out)
}

// WriteJSON answers v through encoding/json (the servers' other endpoints).
// A failed write means the client has gone; there is no one to tell.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// HTTPError answers code with {"error": message}.
func HTTPError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// DecodeSearchRequest decodes a POST /search body into req, reusing
// req.Query's array. It accepts exactly what json.Unmarshal into a zero
// SearchRequest accepts, with the same fields. A body whose keys are all
// "query", "k", "l", "stats" or "filter", in lower case and unescaped, with
// no null value, is parsed here without reflection, and req.Filter aliases
// body; json.Unmarshal decides every other body: an escaped, mixed-case or
// unknown key, a null, and whatever it refuses.
func DecodeSearchRequest(body []byte, req *SearchRequest) error {
	*req = SearchRequest{Query: req.Query[:0]}
	if d := (decoder{buf: body}); d.request(req) {
		return nil
	}
	*req = SearchRequest{Query: req.Query[:0]}
	return json.Unmarshal(body, req)
}

// decoder's methods report false at the first byte outside the common shape.
type decoder struct {
	buf []byte
	pos int
}

func (d *decoder) request(req *SearchRequest) bool {
	if !d.eat('{') {
		return false
	}
	for first := true; !d.eat('}'); first = false {
		n := -1 // a key with an escape never matches one below
		if (first || d.eat(',')) && d.eat('"') {
			n = bytes.IndexByte(d.buf[d.pos:], '"')
		}
		if n < 0 {
			return false
		}
		key := d.buf[d.pos : d.pos+n]
		if d.pos += n + 1; !d.eat(':') {
			return false
		}
		d.ws()
		ok := false
		switch string(key) {
		case "query":
			ok = d.floats(req)
		case "k":
			ok = d.int(&req.K)
		case "l":
			ok = d.int(&req.L)
		case "stats":
			req.Stats = d.lit("true")
			ok = req.Stats || d.lit("false")
		case "filter":
			req.Filter = d.raw()
			ok = json.Valid(req.Filter) && string(req.Filter) != "null"
		}
		if !ok {
			return false
		}
	}
	d.ws()
	return d.pos == len(d.buf)
}

func (d *decoder) ws() {
	for d.pos < len(d.buf) && (d.buf[d.pos] == ' ' || d.buf[d.pos] == '\t' || d.buf[d.pos] == '\n' || d.buf[d.pos] == '\r') {
		d.pos++
	}
}

// eat skips whitespace and then c, if c is next.
func (d *decoder) eat(c byte) bool {
	d.ws()
	ok := d.pos < len(d.buf) && d.buf[d.pos] == c
	if ok {
		d.pos++
	}
	return ok
}

func (d *decoder) lit(s string) bool {
	ok := len(d.buf)-d.pos >= len(s) && string(d.buf[d.pos:d.pos+len(s)]) == s
	if ok {
		d.pos += len(s)
	}
	return ok
}

func (d *decoder) digits() bool {
	start := d.pos
	for d.pos < len(d.buf) && '0' <= d.buf[d.pos] && d.buf[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// number reads one number in JSON's grammar, or returns nil, which neither
// strconv call below accepts.
func (d *decoder) number() []byte {
	start := d.pos
	d.lit("-")
	if !d.lit("0") && !d.digits() || d.lit(".") && !d.digits() {
		return nil
	}
	if d.lit("e") || d.lit("E") {
		_ = d.lit("+") || d.lit("-")
		if !d.digits() {
			return nil
		}
	}
	return d.buf[start:d.pos]
}

// int and floats parse with the strconv calls json.Unmarshal makes: k or l
// with a fraction, an exponent or 64-bit overflow is refused, and each query
// element is the same float32.
func (d *decoder) int(v *int) bool {
	n, err := strconv.Atoi(string(d.number()))
	*v = n
	return err == nil
}

func (d *decoder) floats(req *SearchRequest) bool {
	q := req.Query[:0]
	if !d.eat('[') {
		return false
	}
	for first := true; !d.eat(']'); first = false {
		if !first && !d.eat(',') {
			return false
		}
		d.ws()
		f, err := strconv.ParseFloat(string(d.number()), 32)
		if err != nil {
			return false
		}
		q = append(q, float32(f))
	}
	req.Query = q
	return true
}

// raw returns the bytes up to the next ',', '}' or ']' outside the value's
// strings and brackets, less trailing whitespace: the value, if the
// caller's json.Valid accepts them.
func (d *decoder) raw() json.RawMessage {
	start, depth, str := d.pos, 0, false
	for ; d.pos < len(d.buf); d.pos++ {
		switch c := d.buf[d.pos]; {
		case str && c == '\\':
			d.pos++
		case c == '"':
			str = !str
		case str:
		case c == '{' || c == '[':
			depth++
		case depth == 0 && (c == '}' || c == ']' || c == ','):
			return bytes.TrimRight(d.buf[start:d.pos], " \t\n\r")
		case c == '}' || c == ']':
			depth--
		}
	}
	return nil
}

// AppendSearchResponse appends resp as json.Encoder writes it, newline
// included: each distance in the shortest form that reads back to the same
// float32. A NaN or infinite distance is refused, as encoding/json refuses
// it.
func AppendSearchResponse(dst []byte, resp *SearchResponse) ([]byte, error) {
	for i, d := range resp.Dists {
		if math.IsNaN(float64(d)) || math.IsInf(float64(d), 0) {
			return dst, fmt.Errorf("result %d has distance %v, which JSON cannot carry", i, d)
		}
	}
	dst = appendList(append(dst, `{"ids":`...), resp.IDs, func(b []byte, id int32) []byte { return strconv.AppendInt(b, int64(id), 10) })
	dst = appendList(append(dst, `,"dists":`...), resp.Dists, appendFloat32)
	if resp.Hops != 0 {
		dst = strconv.AppendInt(append(dst, `,"hops":`...), int64(resp.Hops), 10)
	}
	if resp.DistComps != 0 {
		dst = strconv.AppendUint(append(dst, `,"dist_comps":`...), resp.DistComps, 10)
	}
	if resp.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	if len(resp.Missing) > 0 {
		dst = appendList(append(dst, `,"missing_shards":`...), resp.Missing, func(b []byte, si int) []byte { return strconv.AppendInt(b, int64(si), 10) })
	}
	return append(dst, "}\n"...), nil
}

// appendList appends xs as a JSON array, or null for a nil slice.
func appendList[T any](dst []byte, xs []T, item func([]byte, T) []byte) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = item(dst, x)
	}
	return append(dst, ']')
}

// appendFloat32 writes v as encoding/json writes a float32: exponent form
// below 1e-6 and from 1e21 on, without the exponent's leading zero.
func appendFloat32(dst []byte, v float32) []byte {
	format := byte('f')
	if a := float32(math.Abs(float64(v))); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, float64(v), format, -1, 32)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2], dst = dst[n-1], dst[:n-1]
	}
	return dst
}
