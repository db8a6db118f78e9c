// Package server implements rlibmd: a batched correctly rounded
// evaluation service over the generated libraries in this repository.
//
// The wire protocol is a compact length-prefixed binary framing over
// TCP. A request names a function and a representation and carries a
// vector of raw bit patterns; the response returns the corresponding
// result bit patterns, so correctness is bit-exact end to end — the
// bytes on the wire are exactly the values the library computes, with
// no text round-trips.
//
// Frame layout (all integers little-endian):
//
//	request:  u32 len | u8 ver | u8 op | u8 type | u8 nameLen |
//	          u32 id | u32 count | u64 traceID | u64 flags |
//	          name[nameLen] | values[count*width]
//	response: u32 len | u8 ver | u8 status | u8 type | u8 nspans |
//	          u32 id | u32 count | u64 traceID | u64 flags |
//	          spans[nspans*24] | values[count*width]
//
// len counts every byte after the length field itself. ver is always
// ProtoVersion; any other version byte is rejected. width is the
// representation's encoding width: 4 bytes for float32 and posit32,
// 2 bytes for bfloat16, float16 and posit16. Values travel as raw bit
// patterns (math.Float32bits for float32, the posit encoding for
// posits, the 16-bit encodings for the half-width types); 16-bit
// values occupy the low 16 bits of their Request/Response Bits entry.
//
// Every frame carries the 16-byte trace block for cross-process
// request tracing. A trace id of 0 means untraced: the response echoes
// the block with nspans = 0, and no tier reads the clock for it. A
// traced response carries nspans 24-byte span records (u64 start unix
// ns, u64 dur ns, u8 proc, u8 stage, 6 reserved) before the values,
// letting each tier report where the request spent its time.
//
// Inside the daemon, concurrent small requests for the same
// (function, type) are coalesced into large batches before hitting the
// EvalSlice kernels — see dispatch.go — and overload is shed with an
// explicit StatusBusy instead of unbounded queueing.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"unsafe"

	"rlibm32/internal/libm"
	"rlibm32/internal/telemetry"
)

// ProtoVersion is the wire protocol version byte every frame carries;
// a frame with any other version byte is rejected with ErrBadVersion.
const ProtoVersion = 2

// reqHeaderLen / respHeaderLen count the fixed bytes after the length
// prefix, trace block included.
const (
	reqHeaderLen  = 12 + TraceBlockLen
	respHeaderLen = 12 + TraceBlockLen
)

// TraceBlockLen is the trace context block (u64 trace id, u64 flags);
// spanRecLen is one encoded span record in a response.
const (
	TraceBlockLen = 16
	spanRecLen    = 24
	maxFrameSpans = 255 // span count travels in one header byte
)

// DefaultMaxFrame bounds the payload of a single frame (1 MiB: a
// 256k-value float32 batch, far beyond the coalescer's flush size).
const DefaultMaxFrame = 1 << 20

// Opcodes.
const (
	OpEval uint8 = 1 // evaluate a vector of bit patterns
	OpPing uint8 = 2 // liveness/readiness probe; echoes an OK response
)

// Type codes: the wire encoding of a representation.
const (
	TFloat32  uint8 = 1
	TPosit32  uint8 = 2
	TBfloat16 uint8 = 3
	TFloat16  uint8 = 4
	TPosit16  uint8 = 5
)

// Status codes returned in responses.
const (
	StatusOK          uint8 = 0
	StatusBusy        uint8 = 1 // load shed: retry later
	StatusUnknownFunc uint8 = 2
	StatusUnknownType uint8 = 3
	StatusMalformed   uint8 = 4 // framing/header error; connection closes
	StatusTooLarge    uint8 = 5 // frame exceeds the server's max; connection closes
	StatusShutdown    uint8 = 6 // server is draining
)

// StatusText renders a status code for logs and error messages.
func StatusText(s uint8) string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusBusy:
		return "BUSY"
	case StatusUnknownFunc:
		return "UNKNOWN_FUNC"
	case StatusUnknownType:
		return "UNKNOWN_TYPE"
	case StatusMalformed:
		return "MALFORMED"
	case StatusTooLarge:
		return "TOO_LARGE"
	case StatusShutdown:
		return "SHUTDOWN"
	}
	return fmt.Sprintf("STATUS(%d)", s)
}

// TypeWidth returns the encoding width in bytes of a wire type code,
// or 0 if the code is unknown.
func TypeWidth(t uint8) int {
	switch t {
	case TFloat32, TPosit32:
		return 4
	case TBfloat16, TFloat16, TPosit16:
		return 2
	}
	return 0
}

// TypeVariant maps a wire type code to the libm registry variant name
// ("" if unknown).
func TypeVariant(t uint8) string {
	switch t {
	case TFloat32:
		return libm.VariantFloat32
	case TPosit32:
		return libm.VariantPosit32
	case TBfloat16:
		return libm.VariantBfloat16
	case TFloat16:
		return libm.VariantFloat16
	case TPosit16:
		return libm.VariantPosit16
	}
	return ""
}

// TypeCode maps a libm variant name to its wire type code.
func TypeCode(variant string) (uint8, bool) {
	switch variant {
	case libm.VariantFloat32:
		return TFloat32, true
	case libm.VariantPosit32:
		return TPosit32, true
	case libm.VariantBfloat16:
		return TBfloat16, true
	case libm.VariantFloat16:
		return TFloat16, true
	case libm.VariantPosit16:
		return TPosit16, true
	}
	return 0, false
}

// Request is a decoded request frame. Bits holds the raw input bit
// patterns; 16-bit types use the low 16 bits of each entry. A nonzero
// TraceID marks the request as traced.
type Request struct {
	ID         uint32
	Op         uint8
	Type       uint8
	Name       string
	Bits       []uint32
	TraceID    uint64
	TraceFlags uint64
}

// Response is a decoded response frame. It echoes the request's trace
// block; Spans holds the per-stage records a traced response carries.
type Response struct {
	ID         uint32
	Status     uint8
	Type       uint8
	Bits       []uint32
	TraceID    uint64
	TraceFlags uint64
	Spans      []telemetry.SpanRecord
}

// Decode errors (the handler maps them to error frames/close).
var (
	ErrBadVersion = errors.New("server: unsupported protocol version")
	ErrBadFrame   = errors.New("server: malformed frame")
	ErrFrameSize  = errors.New("server: frame exceeds maximum size")
)

// hostLE reports whether the host is little-endian. The wire format is
// little-endian, so on little-endian hosts (every platform this repo
// targets today) the 4-byte-wide value payloads are the in-memory
// []uint32 representation and can be moved with a single copy — or,
// on the write side, referenced in place with no copy at all.
var hostLE = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// bitsAsBytes reinterprets a []uint32 as its in-memory bytes without
// copying. Callers must have checked hostLE; the result aliases bits.
func bitsAsBytes(bits []uint32) []byte {
	if len(bits) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&bits[0])), 4*len(bits))
}

// appendValues encodes bit patterns at the given width. On
// little-endian hosts the 4-byte path is one bulk copy.
func appendValues(dst []byte, bits []uint32, width int) []byte {
	if width == 2 {
		for _, b := range bits {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(b))
		}
		return dst
	}
	if hostLE {
		return append(dst, bitsAsBytes(bits)...)
	}
	for _, b := range bits {
		dst = binary.LittleEndian.AppendUint32(dst, b)
	}
	return dst
}

// decodeValuesInto decodes len(dst) bit patterns from payload at the
// given width into dst, allocating nothing. On little-endian hosts the
// 4-byte path is one bulk copy.
func decodeValuesInto(dst []uint32, payload []byte, width int) {
	if width == 2 {
		for i := range dst {
			dst[i] = uint32(binary.LittleEndian.Uint16(payload[2*i:]))
		}
		return
	}
	if hostLE {
		copy(bitsAsBytes(dst), payload[:4*len(dst)])
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(payload[4*i:])
	}
}

// decodeValues decodes count bit patterns at the given width into a
// fresh slice.
func decodeValues(payload []byte, count, width int) []uint32 {
	bits := make([]uint32, count)
	decodeValuesInto(bits, payload, width)
	return bits
}

// appendRequestHeader appends a request header — the length prefix,
// the fixed fields, the trace block and the function name — to dst.
// The caller appends or scatter-gathers the value payload separately.
func appendRequestHeader(dst []byte, op, typ uint8, name string, id uint32, count, width int, traceID, flags uint64) []byte {
	frameLen := reqHeaderLen + len(name) + count*width
	dst = binary.LittleEndian.AppendUint32(dst, uint32(frameLen))
	dst = append(dst, ProtoVersion, op, typ, uint8(len(name)))
	dst = binary.LittleEndian.AppendUint32(dst, id)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(count))
	dst = binary.LittleEndian.AppendUint64(dst, traceID)
	dst = binary.LittleEndian.AppendUint64(dst, flags)
	return append(dst, name...)
}

// appendResponseHeader appends a response header — the length prefix,
// the fixed fields with the span count, the echoed trace block and the
// encoded span records — to dst. The value payload, count values at
// width bytes, travels separately (net.Buffers scatter-gather). Spans
// beyond maxFrameSpans are dropped (the count must fit one byte).
func appendResponseHeader(dst []byte, status, typ uint8, id uint32, count, width int, traceID, flags uint64, spans []telemetry.SpanRecord) []byte {
	if len(spans) > maxFrameSpans {
		spans = spans[:maxFrameSpans]
	}
	frameLen := respHeaderLen + len(spans)*spanRecLen + count*width
	dst = binary.LittleEndian.AppendUint32(dst, uint32(frameLen))
	dst = append(dst, ProtoVersion, status, typ, uint8(len(spans)))
	dst = binary.LittleEndian.AppendUint32(dst, id)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(count))
	dst = binary.LittleEndian.AppendUint64(dst, traceID)
	dst = binary.LittleEndian.AppendUint64(dst, flags)
	return appendSpanRecords(dst, spans)
}

// appendSpanRecords encodes spans as 24-byte wire records.
func appendSpanRecords(dst []byte, spans []telemetry.SpanRecord) []byte {
	for _, s := range spans {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Start))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Dur))
		dst = append(dst, s.Proc, s.Stage, 0, 0, 0, 0, 0, 0)
	}
	return dst
}

// decodeSpanRecords decodes n wire span records from p into dst
// (emptied and reused; grown only past its capacity). The caller must
// have validated that p holds n*spanRecLen bytes.
func decodeSpanRecords(dst []telemetry.SpanRecord, p []byte, n int) []telemetry.SpanRecord {
	dst = dst[:0]
	for i := 0; i < n; i++ {
		rec := p[i*spanRecLen:]
		dst = append(dst, telemetry.SpanRecord{
			Start: int64(binary.LittleEndian.Uint64(rec)),
			Dur:   int64(binary.LittleEndian.Uint64(rec[8:])),
			Proc:  rec[16],
			Stage: rec[17],
		})
	}
	return dst
}

// AppendRequest appends the wire encoding of req to dst and returns
// the extended slice. 16-bit values are masked to their low 16 bits.
func AppendRequest(dst []byte, req *Request) ([]byte, error) {
	width := TypeWidth(req.Type)
	if width == 0 && (req.Op == OpEval || len(req.Bits) > 0) {
		return dst, fmt.Errorf("%w: unknown type code %d", ErrBadFrame, req.Type)
	}
	if len(req.Name) > 255 {
		return dst, fmt.Errorf("%w: function name too long", ErrBadFrame)
	}
	dst = appendRequestHeader(dst, req.Op, req.Type, req.Name, req.ID, len(req.Bits), width, req.TraceID, req.TraceFlags)
	return appendValues(dst, req.Bits, width), nil
}

// checkHeader checks a frame body's version byte, then that it holds
// the n-byte fixed header. The version comes first so a frame in a
// retired layout is reported as ErrBadVersion whatever its length.
func checkHeader(frame []byte, n int) error {
	if len(frame) > 0 && frame[0] != ProtoVersion {
		return fmt.Errorf("%w: got %d, want %d", ErrBadVersion, frame[0], ProtoVersion)
	}
	if len(frame) < n {
		return fmt.Errorf("%w: header truncated (%d bytes)", ErrBadFrame, len(frame))
	}
	return nil
}

// ParsedRequest is a zero-copy view of a validated request frame: Name
// and Payload alias the frame buffer and are valid only until the
// buffer's next reuse (the next FrameScanner.Next, for scanner-fed
// frames). Payload holds Count wire values at TypeWidth(Type) bytes
// each; decode them with DecodeValuesInto. The server and proxy read
// loops work from this view without materializing a Request.
type ParsedRequest struct {
	Op         uint8
	Type       uint8
	ID         uint32
	Count      int
	Name       []byte
	Payload    []byte
	TraceID    uint64
	TraceFlags uint64
}

// ParseRequest validates a request frame (the bytes after the length
// prefix) — version, opcode, type code, exact length consistency —
// and returns a zero-copy view of it. It is the only request parser:
// every tier validates frames here. Once the fixed header is intact,
// its fields (ID above all, for the error response) are set even when
// the rest of the frame is rejected.
func ParseRequest(frame []byte) (ParsedRequest, error) {
	var pr ParsedRequest
	if err := checkHeader(frame, reqHeaderLen); err != nil {
		return pr, err
	}
	pr.Op, pr.Type = frame[1], frame[2]
	pr.ID = binary.LittleEndian.Uint32(frame[4:])
	pr.Count = int(binary.LittleEndian.Uint32(frame[8:]))
	pr.TraceID = binary.LittleEndian.Uint64(frame[12:])
	pr.TraceFlags = binary.LittleEndian.Uint64(frame[20:])
	nameLen := int(frame[3])
	switch pr.Op {
	case OpPing:
		if nameLen != 0 || pr.Count != 0 || len(frame) != reqHeaderLen {
			return pr, fmt.Errorf("%w: ping carries a payload", ErrBadFrame)
		}
		return pr, nil
	case OpEval:
	default:
		return pr, fmt.Errorf("%w: unknown opcode %d", ErrBadFrame, pr.Op)
	}
	width := TypeWidth(pr.Type)
	if width == 0 {
		return pr, fmt.Errorf("%w: unknown type code %d", ErrBadFrame, pr.Type)
	}
	if want := reqHeaderLen + nameLen + pr.Count*width; len(frame) != want {
		return pr, fmt.Errorf("%w: frame length %d, header implies %d", ErrBadFrame, len(frame), want)
	}
	pr.Name = frame[reqHeaderLen : reqHeaderLen+nameLen]
	pr.Payload = frame[reqHeaderLen+nameLen:]
	return pr, nil
}

// DecodeRequest parses a request frame (the bytes after the length
// prefix) into an owning Request, with ParseRequest's validation.
func DecodeRequest(frame []byte) (*Request, error) {
	pr, err := ParseRequest(frame)
	if err != nil {
		return nil, err
	}
	req := &Request{
		Op: pr.Op, Type: pr.Type, ID: pr.ID, Name: string(pr.Name),
		TraceID: pr.TraceID, TraceFlags: pr.TraceFlags,
	}
	if pr.Op == OpEval {
		req.Bits = decodeValues(pr.Payload, pr.Count, TypeWidth(pr.Type))
	}
	return req, nil
}

// DecodeValuesInto decodes len(dst) wire values from payload at the
// given width (2 or 4) into dst without allocating. The caller must
// have validated the frame (ParseRequest/DecodeResponse do), so
// payload holds at least len(dst)*width bytes.
func DecodeValuesInto(dst []uint32, payload []byte, width int) {
	decodeValuesInto(dst, payload, width)
}

// AppendResponse appends the wire encoding of resp to dst. A response
// with an unknown type code must carry no values (error responses echo
// the request's type code verbatim, which may be garbage).
func AppendResponse(dst []byte, resp *Response) ([]byte, error) {
	width := TypeWidth(resp.Type)
	if width == 0 && len(resp.Bits) > 0 {
		return dst, fmt.Errorf("%w: values with unknown type code %d", ErrBadFrame, resp.Type)
	}
	dst = appendResponseHeader(dst, resp.Status, resp.Type, resp.ID, len(resp.Bits), width, resp.TraceID, resp.TraceFlags, resp.Spans)
	return appendValues(dst, resp.Bits, width), nil
}

// respHeader is the validated fixed part of a response frame. The span
// records start at frame[respHeaderLen]; the values, count of them at
// width bytes each, at frame[values].
type respHeader struct {
	status, typ uint8
	id          uint32
	count       int
	width       int
	traceID     uint64
	traceFlags  uint64
	nspans      int
	values      int
}

// parseResponseHeader validates a response frame (the bytes after the
// length prefix) — version, span records in bounds, and a length
// exactly consistent with count values of a known type — without
// allocating. It is the one response parser, shared by DecodeResponse
// and the client's reader.
func parseResponseHeader(frame []byte) (respHeader, error) {
	var h respHeader
	if err := checkHeader(frame, respHeaderLen); err != nil {
		return h, err
	}
	h.status, h.typ, h.nspans = frame[1], frame[2], int(frame[3])
	h.id = binary.LittleEndian.Uint32(frame[4:])
	h.count = int(binary.LittleEndian.Uint32(frame[8:]))
	h.traceID = binary.LittleEndian.Uint64(frame[12:])
	h.traceFlags = binary.LittleEndian.Uint64(frame[20:])
	h.values = respHeaderLen + h.nspans*spanRecLen
	if len(frame) < h.values {
		return h, fmt.Errorf("%w: span records truncated (%d bytes, %d spans)", ErrBadFrame, len(frame), h.nspans)
	}
	if h.count == 0 {
		if len(frame) != h.values {
			return h, fmt.Errorf("%w: empty response with %d trailing bytes", ErrBadFrame, len(frame)-h.values)
		}
		return h, nil
	}
	if h.width = TypeWidth(h.typ); h.width == 0 {
		return h, fmt.Errorf("%w: values with unknown type code %d", ErrBadFrame, h.typ)
	}
	if want := h.values + h.count*h.width; len(frame) != want {
		return h, fmt.Errorf("%w: frame length %d, header implies %d", ErrBadFrame, len(frame), want)
	}
	return h, nil
}

// DecodeResponse parses a response frame (the bytes after the length
// prefix) into an owning Response.
func DecodeResponse(frame []byte) (*Response, error) {
	h, err := parseResponseHeader(frame)
	if err != nil {
		return nil, err
	}
	resp := &Response{
		ID: h.id, Status: h.status, Type: h.typ,
		TraceID: h.traceID, TraceFlags: h.traceFlags,
	}
	if h.nspans > 0 {
		resp.Spans = decodeSpanRecords(nil, frame[respHeaderLen:], h.nspans)
	}
	if h.count > 0 {
		resp.Bits = decodeValues(frame[h.values:], h.count, h.width)
	}
	return resp, nil
}

// frameKeep is the frame-buffer capacity a frameReader retains across
// reads. Buffers grow to the next power of two above the largest frame
// seen (so a steady stream of equal-sized frames never reallocates),
// but a one-off giant frame does not pin its allocation: anything
// above frameKeep is dropped once the next, smaller frame arrives.
const frameKeep = 64 << 10

// frameReader reads length-prefixed frame bodies into one reused
// buffer. The growth policy is the point: reject oversize lengths
// before allocating anything, round allocations up to a power of two
// (capped at max) so steady-state traffic reuses one buffer with zero
// allocations, and shrink back after a burst so a single huge frame
// does not hold its memory for the connection's lifetime.
type frameReader struct {
	buf []byte
	max int     // reject frames above this, pre-allocation
	hdr [4]byte // length-prefix scratch (a field so reads don't allocate)
}

// read returns the next frame body. The returned slice aliases the
// reader's buffer and is valid until the next read call. A length
// above max returns ErrFrameSize without consuming the body — the
// connection must be closed, since the stream position is no longer
// trustworthy.
func (fr *frameReader) read(r *bufio.Reader) ([]byte, error) {
	if _, err := io.ReadFull(r, fr.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(fr.hdr[:]))
	if n > fr.max {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameSize, n, fr.max)
	}
	if cap(fr.buf) < n || (cap(fr.buf) > frameKeep && n <= frameKeep) {
		fr.buf = make([]byte, frameAlloc(n, fr.max))
	}
	buf := fr.buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("%w: body truncated: %v", ErrBadFrame, err)
	}
	return buf, nil
}

// frameAlloc rounds a needed size up to the next power of two, clamped
// to [512, max].
func frameAlloc(n, max int) int {
	if n < 512 {
		return 512
	}
	if n >= max {
		return max
	}
	p := 1 << bits.Len(uint(n-1))
	if p > max {
		return max
	}
	return p
}

// readFrame reads one length-prefixed frame body into buf (grown under
// the frameReader policy) and returns the body plus the buffer to
// reuse on the next call.
func readFrame(r *bufio.Reader, buf []byte, maxFrame int) ([]byte, []byte, error) {
	fr := frameReader{buf: buf, max: maxFrame}
	frame, err := fr.read(r)
	return frame, fr.buf, err
}

// FrameScanner reads length-prefixed frame bodies from one stream with
// the frameReader reuse policy (reject-before-alloc on oversize
// lengths, power-of-two growth, shrink-back after bursts). It is the
// exported face of the server's internal framing for other tiers —
// rlibmproxy's downstream reader — so the whole fleet shares one
// framing implementation.
type FrameScanner struct {
	br *bufio.Reader
	fr frameReader
}

// NewFrameScanner wraps r. maxFrame bounds a single frame's payload
// (DefaultMaxFrame when <= 0); an oversized length returns ErrFrameSize
// from Next without consuming the body, after which the stream position
// is untrustworthy and the connection must be closed.
func NewFrameScanner(r io.Reader, maxFrame int) *FrameScanner {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &FrameScanner{
		br: bufio.NewReaderSize(r, 64<<10),
		fr: frameReader{max: maxFrame},
	}
}

// Next returns the next frame body (the bytes after the length
// prefix). The returned slice aliases the scanner's reused buffer and
// is valid only until the next call.
func (s *FrameScanner) Next() ([]byte, error) {
	return s.fr.read(s.br)
}
