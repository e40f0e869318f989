package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// Wire protocol: length-prefixed binary frames over a byte stream.
//
// Every frame is
//
//	u32  payload length (big-endian, not counting these 4 bytes)
//	u8   frame type
//	u32  request id
//	...  type-specific body
//
// Client → server:
//
//	'V' hello   u16 protocol version (the highest the client speaks)
//	'O' open    u8 kernel-name-len, name, u32 stream-count
//	'S' stream  u32 stream-idx, u16 #arrays,
//	            each: u8 name-len, name, u32 #elems, elems × i64
//	'K' keepalive (empty body; the server echoes it, request id intact)
//
// Server → client:
//
//	'V' hello   u16 protocol version (min of client's and server's)
//	'R' result  u32 stream-idx, u64 cycles,
//	            u16 #outputs,   each: u8 name-len, name, u32 #elems, elems × i64
//	            u16 #feedbacks, each: u8 name-len, name, i64 value
//	'F' fault   u32 stream-idx, u32 abort-cycle, u8 op-len, op,
//	            u16 msg-len, msg      (a dp.FaultError, cycle-exact)
//	'E' error   u32 stream-idx (0xFFFFFFFF = request-level), u16 msg-len, msg
//	'D' done    (empty body: every stream of the request was answered)
//	'K' keepalive (echo of a client keepalive)
//
// A request is one 'O' frame followed by exactly stream-count 'S'
// frames. The server answers each stream with one 'R', 'F' or
// stream-level 'E' frame — in completion order, not stream order; the
// stream-idx identifies the stream — and finishes the request with 'D'.
// A request-level 'E' (unknown kernel, kernel fails to compile, server
// draining) aborts the whole request: no 'D' follows and subsequent 'S'
// frames for that request id are discarded. Backpressure is the byte
// stream's own: the server stops reading while its per-connection
// executor is saturated, and a client that stops reading eventually
// blocks the server's writes.
//
// Frames are atomic on the wire, but writes may carry several: a
// pipelined client sends a request's 'O' and 'S' frames in one write,
// and the server sends a request's last response together with its 'D'.
// Readers must not assume one frame per read.
//
// Versioning. Protocol v1 (PR 4) is the frame set above minus 'V' and
// 'K': one request in flight per connection, no negotiation. Protocol
// v2 keeps every v1 frame byte-for-byte identical and adds the hello
// handshake and keepalive, which is what makes pipelining safe to rely
// on: a v1 client's byte stream is a valid v2 byte stream, so v1
// clients work against a v2 server unchanged, while a pipelined (v2)
// client opens with 'V' and refuses to run against a server that does
// not ack it — a v1 server answers the unknown frame type with a
// request-level 'E' and closes. With the handshake done, one
// connection carries many requests concurrently: request ids demux the
// responses client-side, and the server's per-connection executor
// becomes a per-request-slot semaphore shared by all of them.
const (
	frameHello     = 'V'
	frameOpen      = 'O'
	frameStream    = 'S'
	frameResult    = 'R'
	frameFault     = 'F'
	frameError     = 'E'
	frameDone      = 'D'
	frameKeepAlive = 'K'
)

// Protocol versions. ProtoV1 is the PR 4 wire format (no hello, no
// keepalive, serial requests); ProtoV2 adds negotiation, keepalive and
// pipelined requests over one connection.
const (
	ProtoV1 = 1
	ProtoV2 = 2
)

// reqNone is the request id used for errors that cannot be attributed to
// a request (malformed frames); streamNone marks request-level errors.
const (
	reqNone    = ^uint32(0)
	streamNone = ^uint32(0)
)

// maxFrame bounds one frame's payload; a length prefix beyond it is a
// protocol error (it would otherwise size a multi-gigabyte read from a
// single corrupt word).
const maxFrame = 64 << 20

// maxName bounds kernel and array names (they travel as u8-length
// strings).
const maxName = 255

// bufHighWater is the scratch retention bound of the wire path. After
// one oversized frame, a long-lived connection's receive buffer is
// dropped as soon as traffic returns to small frames (scratch); pooled
// encoders and the server's recycled stream scratch that grew past it
// are dropped instead of pooled; and a client flushes a request's
// coalesced frames early once they pass it.
const bufHighWater = 1 << 20

// frameChunk is the step readFrame grows its buffer by while a frame
// body arrives: a length prefix is only a claim until the bytes exist.
const frameChunk = 64 << 10

// ErrTruncatedFrame marks a frame whose bytes ended early: the stream
// closed inside a frame body, or a body ended inside one of its fields.
// Match with errors.Is.
var ErrTruncatedFrame = errors.New("serve: truncated frame")

// ErrMalformedFrame marks a frame that breaks the protocol: a zero or
// oversized length prefix, or a response a pipelined client cannot
// attribute (unknown frame type, request or stream). Match with
// errors.Is.
var ErrMalformedFrame = errors.New("serve: malformed frame")

// encoder builds frames in a reusable buffer. Each frame's length
// prefix is patched once its body is complete, so a buffer always holds
// whole frames: writers hand it to one Write, concurrent responders
// never interleave partial frames, and several frames of one request
// may share a write.
type encoder struct {
	buf   []byte
	start int // offset of the open frame's length prefix
}

// encPool recycles the encoders that carry stream frames and their
// responses; putEncoder drops buffers grown past bufHighWater.
var encPool = sync.Pool{New: func() any { return new(encoder) }}

func getEncoder() *encoder { return encPool.Get().(*encoder) }

func putEncoder(e *encoder) {
	if cap(e.buf) <= bufHighWater {
		encPool.Put(e)
	}
}

// begin empties the buffer and opens its first frame.
func (e *encoder) begin(typ byte, req uint32) {
	e.buf = e.buf[:0]
	e.open(typ, req)
}

// next closes the open frame and opens another after it in the buffer.
func (e *encoder) next(typ byte, req uint32) {
	e.close()
	e.open(typ, req)
}

func (e *encoder) open(typ byte, req uint32) {
	e.start = len(e.buf)
	e.buf = append(e.buf, 0, 0, 0, 0, typ)
	e.u32(req)
}

func (e *encoder) close() {
	binary.BigEndian.PutUint32(e.buf[e.start:], uint32(len(e.buf)-e.start-4))
}

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }

func (e *encoder) str8(s string) {
	if len(s) > maxName {
		s = s[:maxName]
	}
	e.u8(uint8(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) str16(s string) {
	if len(s) > 1<<16-1 {
		s = s[:1<<16-1]
	}
	e.u16(uint16(len(s)))
	e.buf = append(e.buf, s...)
}

// vals appends a u32-counted i64 vector: the buffer grows once, then
// the block is filled in place, four elements per bounds check.
//
//roccc:hotpath
func (e *encoder) vals(v []int64) {
	e.u32(uint32(len(v)))
	off := len(e.buf)
	e.buf = slices.Grow(e.buf, 8*len(v))[:off+8*len(v)]
	b := e.buf[off:]
	for len(v) >= 4 && len(b) >= 32 {
		binary.BigEndian.PutUint64(b[0:8], uint64(v[0]))
		binary.BigEndian.PutUint64(b[8:16], uint64(v[1]))
		binary.BigEndian.PutUint64(b[16:24], uint64(v[2]))
		binary.BigEndian.PutUint64(b[24:32], uint64(v[3]))
		b, v = b[32:], v[4:]
	}
	for i, x := range v {
		binary.BigEndian.PutUint64(b[8*i:], uint64(x))
	}
}

// finish closes the open frame and returns every frame in the buffer.
func (e *encoder) finish() []byte {
	e.close()
	return e.buf
}

// readFrame reads one length-prefixed frame payload into buf's storage
// and returns the payload; the header is read into the same storage, so
// a reused buffer makes the read allocation-free. The buffer grows only
// as body bytes actually arrive, at most frameChunk or the bytes already
// read at a time, so a hostile length prefix pins no more memory than
// the bytes sent behind it.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], 4)
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("%w: %w", ErrTruncatedFrame, err)
		}
		return nil, err // io.EOF: the stream ended cleanly between frames
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n == 0 {
		return nil, fmt.Errorf("%w: zero length", ErrMalformedFrame)
	}
	if n > maxFrame {
		return nil, fmt.Errorf("%w: %d bytes exceed the %d-byte limit", ErrMalformedFrame, n, maxFrame)
	}
	body := buf[:0]
	for len(body) < n {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(n-len(body), max(len(body), frameChunk)))
		}
		m, err := r.Read(body[len(body):min(n, cap(body))])
		body = body[:len(body)+m]
		if err != nil && len(body) < n {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("%w: %w", ErrTruncatedFrame, err)
		}
	}
	return body, nil
}

// scratch returns the receive buffer to keep after a frame: the
// payload's storage, unless it has grown past bufHighWater and traffic
// is small again, in which case the next read starts afresh instead of
// pinning the high-water allocation for the connection's lifetime.
func scratch(payload []byte) []byte {
	if cap(payload) > bufHighWater && len(payload) < bufHighWater/4 {
		return nil
	}
	return payload[:cap(payload)]
}

// decoder walks one frame payload; the first decoding overrun latches
// into err and every later read returns zero values, so call sites check
// once at the end.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w body at offset %d", ErrTruncatedFrame, d.off)
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) u16() uint16 {
	if d.err != nil || d.off+2 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) i64() int64 { return int64(d.u64()) }

// bytes8 returns a u8-counted name as a view into the payload: names
// looked up in a map by string(b) cost no allocation.
func (d *decoder) bytes8() []byte {
	n := int(d.u8())
	if d.err != nil || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) str8() string { return string(d.bytes8()) }

func (d *decoder) str16() string {
	n := int(d.u16())
	if d.err != nil || d.off+n > len(d.b) {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// valsInto decodes a u32-counted i64 vector into dst's storage when it
// has the capacity (the steady-state buffer-reuse path of both ends).
// The count is checked against the payload once for the whole block;
// the copy then runs four elements per bounds check.
//
//roccc:hotpath
func (d *decoder) valsInto(dst []int64) []int64 {
	n := int(d.u32())
	if d.err != nil || n > (len(d.b)-d.off)/8 {
		d.fail()
		return nil
	}
	if cap(dst) < n {
		dst = make([]int64, n)
	}
	dst = dst[:n]
	b, out := d.b[d.off:d.off+8*n], dst
	for len(out) >= 4 && len(b) >= 32 {
		out[0] = int64(binary.BigEndian.Uint64(b[0:8]))
		out[1] = int64(binary.BigEndian.Uint64(b[8:16]))
		out[2] = int64(binary.BigEndian.Uint64(b[16:24]))
		out[3] = int64(binary.BigEndian.Uint64(b[24:32]))
		b, out = b[32:], out[4:]
	}
	for i := range out {
		out[i] = int64(binary.BigEndian.Uint64(b[8*i:]))
	}
	d.off += 8 * n
	return dst
}

// remaining reports whether undecoded bytes are left (a well-formed
// frame is consumed exactly).
func (d *decoder) remaining() bool { return d.err == nil && d.off != len(d.b) }
