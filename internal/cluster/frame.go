package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
)

// The router wire. After an HTTP Upgrade on the backend's ordinary listener
// (GET /wire, "Upgrade: nsg-frame/1" → 101) both sides exchange
// length-prefixed little-endian frames, one reply per request, in order:
//
//	request  len u32 | k i32 | l i32 | dim u32 | filterLen u32 | dim×f32 | filter
//	reply    len u32 | 0 u8 | n u32 | n×i32 ids | n×f32 dists
//	         len u32 | 1 u8 | status u16 | message
//
// len counts the bytes after itself. The filter is the opaque predicate JSON
// the client sent; the backend compiles it per request. ARCHITECTURE.md
// ("The router wire") has the layout byte by byte and the reasons.
const (
	// WirePath and WireProtocol name the upgrade a backend serves.
	WirePath     = "/wire"
	WireProtocol = "nsg-frame/1"
	// MaxFrameBytes caps a frame's payload and the servers' JSON request
	// bodies, which are read in full before any check runs.
	MaxFrameBytes = 8 << 20

	requestHeaderBytes = 16
	replyOK            = 0
	replyError         = 1
)

// ReplicaError is a replica's own refusal of a request, carried in an error
// frame: an HTTP-style status and the replica's message. A 4xx means the
// request is bad on a healthy replica — the router neither retries it nor
// charges the replica a failure, and nsgrouter hands status and message to
// the client; a 5xx is a replica fault like any transport error.
type ReplicaError struct {
	Status int
	Msg    string
}

func (e *ReplicaError) Error() string { return fmt.Sprintf("status %d: %s", e.Status, e.Msg) }

// BadRequest builds the 400 a replica answers a malformed request with.
func BadRequest(format string, args ...any) *ReplicaError {
	return &ReplicaError{Status: http.StatusBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// clientFault reports whether err is a replica's 4xx: the request's fault,
// not the replica's.
func clientFault(err error) bool {
	if err == nil {
		return false // before errors.As, whose target would escape
	}
	var re *ReplicaError
	return errors.As(err, &re) && re.Status >= 400 && re.Status < 500
}

// appendRequest appends req's frame, length prefix included.
func appendRequest(dst []byte, req *SearchRequest) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(requestHeaderBytes+4*len(req.Query)+len(req.Filter)))
	dst = le.AppendUint32(dst, uint32(int32(req.K)))
	dst = le.AppendUint32(dst, uint32(int32(req.L)))
	dst = le.AppendUint32(dst, uint32(len(req.Query)))
	dst = le.AppendUint32(dst, uint32(len(req.Filter)))
	for _, v := range req.Query {
		dst = le.AppendUint32(dst, math.Float32bits(v))
	}
	return append(dst, req.Filter...)
}

// parseRequest decodes a request payload into req, reusing req.Query's
// backing array when the query fits; req.Filter aliases payload. Whatever
// JSON could not have said is refused here, before any search runs: lengths
// that disagree with the frame, negative k or l, a non-finite coordinate.
func parseRequest(payload []byte, req *SearchRequest) error {
	if len(payload) < requestHeaderBytes {
		return BadRequest("request frame of %d bytes is shorter than its %d-byte header", len(payload), requestHeaderBytes)
	}
	le := binary.LittleEndian
	k, l := int32(le.Uint32(payload[0:])), int32(le.Uint32(payload[4:]))
	dim, filterLen := uint64(le.Uint32(payload[8:])), uint64(le.Uint32(payload[12:]))
	if want := requestHeaderBytes + 4*dim + filterLen; want != uint64(len(payload)) {
		return BadRequest("request frame is %d bytes but dim %d and filter length %d need %d", len(payload), dim, filterLen, want)
	}
	if k < 0 || l < 0 {
		return BadRequest("negative k %d / l %d", k, l)
	}
	query := req.Query[:0]
	body := payload[requestHeaderBytes:]
	for i := 0; i < int(dim); i++ {
		bits := le.Uint32(body[4*i:])
		if bits&0x7f800000 == 0x7f800000 {
			return BadRequest("query[%d] is not finite", i)
		}
		query = append(query, math.Float32frombits(bits))
	}
	*req = SearchRequest{Query: query, K: int(k), L: int(l)}
	if filterLen > 0 {
		req.Filter = body[4*dim:]
	}
	return nil
}

// appendReply appends an answer frame. ids and dists must be the same length.
func appendReply(dst []byte, ids []int32, dists []float32) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(5+8*len(ids)))
	dst = append(dst, replyOK)
	dst = le.AppendUint32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = le.AppendUint32(dst, uint32(id))
	}
	for _, d := range dists {
		dst = le.AppendUint32(dst, math.Float32bits(d))
	}
	return dst
}

// appendErrorReply appends an error frame carrying err's status (500 unless
// err is a *ReplicaError) and message.
func appendErrorReply(dst []byte, err error) []byte {
	status, msg := http.StatusInternalServerError, err.Error()
	var re *ReplicaError
	if errors.As(err, &re) {
		status, msg = re.Status, re.Msg
	}
	msg = msg[:min(len(msg), 1<<10)]
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(3+len(msg)))
	dst = append(dst, replyError)
	dst = le.AppendUint16(dst, uint16(status))
	return append(dst, msg...)
}

// parseReply decodes a reply payload into resp's reused ids and distances,
// or returns the *ReplicaError an error frame carries. A payload whose
// length disagrees with its count is an error, never a truncated answer.
func parseReply(payload []byte, resp *SearchResponse) error {
	if len(payload) == 0 {
		return errors.New("empty reply frame")
	}
	le := binary.LittleEndian
	switch payload[0] {
	case replyOK:
		if len(payload) < 5 {
			return fmt.Errorf("reply frame of %d bytes is shorter than its header", len(payload))
		}
		n := uint64(le.Uint32(payload[1:]))
		if want := 5 + 8*n; want != uint64(len(payload)) {
			return fmt.Errorf("reply frame is %d bytes but %d results need %d", len(payload), n, want)
		}
		ids, dists := payload[5:5+4*n], payload[5+4*n:]
		resp.IDs, resp.Dists = resp.IDs[:0], resp.Dists[:0]
		for i := 0; i < int(n); i++ {
			resp.IDs = append(resp.IDs, int32(le.Uint32(ids[4*i:])))
			resp.Dists = append(resp.Dists, math.Float32frombits(le.Uint32(dists[4*i:])))
		}
		return nil
	case replyError:
		if len(payload) < 3 {
			return fmt.Errorf("error frame of %d bytes is shorter than its header", len(payload))
		}
		return &ReplicaError{Status: int(le.Uint16(payload[1:])), Msg: string(payload[3:])}
	}
	return fmt.Errorf("reply frame has unknown kind %d", payload[0])
}

// frameReader reads length-prefixed frames off a stream into one buffer it
// reuses, usually with a single Read per frame.
type frameReader struct {
	r        io.Reader
	buf      []byte
	pos, end int // buf[pos:end] is read but not yet consumed
	// started reports whether any byte of the frame being read has arrived.
	started bool
}

// fill reads until at least n unconsumed bytes are buffered.
func (fr *frameReader) fill(n int) error {
	if fr.end-fr.pos >= n {
		fr.started = true
		return nil
	}
	if fr.pos > 0 {
		fr.end = copy(fr.buf, fr.buf[fr.pos:fr.end])
		fr.pos = 0
	}
	if len(fr.buf) < n {
		grown := make([]byte, max(n, 4<<10))
		copy(grown, fr.buf[:fr.end])
		fr.buf = grown
	}
	for fr.end < n {
		m, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += m
		fr.started = fr.started || fr.end > 0
		if err != nil && fr.end < n {
			if err == io.EOF && fr.started {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// next returns the next frame's payload, valid until the following call. A
// frame over MaxFrameBytes is consumed without being buffered and reported
// as errFrameTooLarge, so the stream stays aligned on the frame after it.
func (fr *frameReader) next() ([]byte, error) {
	fr.started = false
	if err := fr.fill(4); err != nil {
		return nil, err
	}
	size := binary.LittleEndian.Uint32(fr.buf[fr.pos:])
	fr.pos += 4
	if size > MaxFrameBytes {
		skip := min(int64(size), int64(fr.end-fr.pos))
		fr.pos += int(skip)
		if _, err := io.CopyN(io.Discard, fr.r, int64(size)-skip); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		return nil, fmt.Errorf("%w: %d bytes, limit %d", errFrameTooLarge, size, MaxFrameBytes)
	}
	n := int(size)
	if err := fr.fill(n); err != nil {
		return nil, err
	}
	payload := fr.buf[fr.pos : fr.pos+n]
	fr.pos += n
	return payload, nil
}

var errFrameTooLarge = errors.New("frame too large")

// FrameHandler answers one decoded request: shard-local ids and their
// distances, equal in length, or an error — a *ReplicaError to choose the
// status, anything else is a 500. req and the slices it holds belong to the
// stream and are valid only until the handler returns.
type FrameHandler func(req *SearchRequest) (ids []int32, dists []float32, err error)

// ServeFrames is the backend half of the router wire: it answers request
// frames from conn with h, one at a time, until conn fails or the peer
// closes it (a clean close between frames returns nil). Malformed requests
// are answered with a 400 error frame and the stream carries on. nsgserve and
// every test fake run this one loop; its buffers live as long as the stream,
// so a steady stream allocates only what h does.
func ServeFrames(conn io.ReadWriter, h FrameHandler) error {
	fr := frameReader{r: conn}
	var req SearchRequest
	var out []byte
	for {
		payload, err := fr.next()
		switch {
		case errors.Is(err, errFrameTooLarge):
			out = appendErrorReply(out[:0], BadRequest("%v", err))
		case err == io.EOF:
			return nil
		case err != nil:
			return err
		default:
			var ids []int32
			var dists []float32
			if err = parseRequest(payload, &req); err == nil {
				ids, dists, err = h(&req)
			}
			if err == nil && len(ids) != len(dists) {
				err = fmt.Errorf("handler returned %d ids but %d dists", len(ids), len(dists))
			}
			if err != nil {
				out = appendErrorReply(out[:0], err)
			} else {
				out = appendReply(out[:0], ids, dists)
			}
		}
		if _, err := conn.Write(out); err != nil {
			return err
		}
	}
}
