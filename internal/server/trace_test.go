package server

import (
	"errors"
	"testing"

	"rlibm32/internal/telemetry"
)

// TestTracedRequestRoundTrip checks that a request frame carries its
// trace block through encode→parse unchanged, and that an untraced
// request (trace id 0) uses the same layout with a zero block.
func TestTracedRequestRoundTrip(t *testing.T) {
	cases := []*Request{
		{Op: OpEval, Type: TFloat32, Name: "exp", ID: 7, Bits: []uint32{0x3f800000},
			TraceID: 0xdeadbeefcafef00d, TraceFlags: 0x1},
		{Op: OpEval, Type: TPosit16, Name: "ln", ID: 1, Bits: []uint32{1, 2, 3},
			TraceID: 1, TraceFlags: 0},
		{Op: OpPing, TraceID: 42, TraceFlags: 7},
		{Op: OpEval, Type: TFloat32, Name: "exp", ID: 9, Bits: []uint32{5}}, // untraced control
	}
	for _, req := range cases {
		enc, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("encode %+v: %v", req, err)
		}
		if enc[4] != ProtoVersion {
			t.Errorf("frame version byte %d, want %d", enc[4], ProtoVersion)
		}
		pr, err := ParseRequest(enc[4:])
		if err != nil {
			t.Fatalf("parse %+v: %v", req, err)
		}
		if pr.TraceID != req.TraceID || pr.TraceFlags != req.TraceFlags {
			t.Errorf("trace context: got (%#x %#x) want (%#x %#x)",
				pr.TraceID, pr.TraceFlags, req.TraceID, req.TraceFlags)
		}
		if pr.Op != req.Op || pr.Type != req.Type || pr.ID != req.ID {
			t.Errorf("header mismatch: got %+v want %+v", pr, req)
		}
		got, err := DecodeRequest(enc[4:])
		if err != nil {
			t.Fatalf("decode %+v: %v", req, err)
		}
		if got.TraceID != req.TraceID || got.TraceFlags != req.TraceFlags {
			t.Errorf("DecodeRequest trace context: got %+v want %+v", got, req)
		}
	}
}

// TestTracedResponseRoundTrip checks that a response echoes the trace
// block and span records exactly, and that the span count saturates at
// the capacity of its header byte.
func TestTracedResponseRoundTrip(t *testing.T) {
	spans := []telemetry.SpanRecord{
		{Start: 1000, Dur: 50, Proc: telemetry.ProcBackend, Stage: telemetry.StageQueue},
		{Start: 1050, Dur: 20, Proc: telemetry.ProcBackend, Stage: telemetry.StageCoalesce},
		{Start: 1070, Dur: 90, Proc: telemetry.ProcBackend, Stage: telemetry.StageKernel},
	}
	resp := &Response{
		Status: StatusOK, Type: TFloat32, ID: 7, Bits: []uint32{0x40000000, 0x3f000000},
		TraceID: 0xbeef, TraceFlags: 3, Spans: spans,
	}
	enc, err := AppendResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponse(enc[4:])
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != resp.TraceID || got.TraceFlags != resp.TraceFlags {
		t.Errorf("trace context: got %+v want %+v", got, resp)
	}
	if len(got.Spans) != len(spans) {
		t.Fatalf("spans: got %d want %d", len(got.Spans), len(spans))
	}
	for i, s := range spans {
		if got.Spans[i] != s {
			t.Errorf("span[%d]: got %+v want %+v", i, got.Spans[i], s)
		}
	}
	if got.Status != resp.Status || got.ID != resp.ID || len(got.Bits) != len(resp.Bits) {
		t.Errorf("payload mismatch: got %+v want %+v", got, resp)
	}

	// Span count saturates at the header byte's range.
	big := make([]telemetry.SpanRecord, maxFrameSpans+20)
	for i := range big {
		big[i] = telemetry.SpanRecord{Start: int64(i), Proc: telemetry.ProcProxy, Stage: telemetry.StageForward}
	}
	enc, err = AppendResponse(nil, &Response{Status: StatusOK, TraceID: 1, Spans: big})
	if err != nil {
		t.Fatal(err)
	}
	got, err = DecodeResponse(enc[4:])
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Spans) != maxFrameSpans {
		t.Errorf("oversized span list: got %d spans back, want truncation to %d", len(got.Spans), maxFrameSpans)
	}
}

// TestTracedFrameErrors checks the malformed-frame edges of the trace
// block: truncated headers, span counts that overrun the frame, and
// version bytes other than ProtoVersion — including 1, the retired
// layout without the block.
func TestTracedFrameErrors(t *testing.T) {
	req, _ := AppendRequest(nil, &Request{
		Op: OpEval, Type: TFloat32, Name: "exp", Bits: []uint32{1},
		TraceID: 5, TraceFlags: 0,
	})
	frame := req[4:]

	reqCases := map[string][]byte{
		"trace block truncated": frame[:reqHeaderLen-3],
		"v1 version":            mutate(frame, 0, 1),
		"future version":        mutate(frame, 0, ProtoVersion+1),
		"length mismatch":       frame[:len(frame)-1],
	}
	for name, f := range reqCases {
		if _, err := ParseRequest(f); err == nil {
			t.Errorf("%s: ParseRequest accepted malformed frame", name)
		}
	}
	for _, v := range []byte{1, ProtoVersion + 1} {
		if _, err := ParseRequest(mutate(frame, 0, v)); !errors.Is(err, ErrBadVersion) {
			t.Errorf("version %d: err = %v, want ErrBadVersion", v, err)
		}
	}
	// A version 1 frame is shorter than the current header; the version
	// byte, not the length, is what rejects it.
	v1, _ := AppendRequest(nil, &Request{Op: OpPing})
	if _, err := ParseRequest(mutate(v1[4:reqHeaderLen+4-TraceBlockLen], 0, 1)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("short v1 frame: err = %v, want ErrBadVersion", err)
	}

	resp, _ := AppendResponse(nil, &Response{
		Status: StatusOK, Type: TFloat32, ID: 1, Bits: []uint32{2},
		TraceID: 5,
		Spans:   []telemetry.SpanRecord{{Start: 1, Dur: 1, Proc: telemetry.ProcBackend, Stage: telemetry.StageKernel}},
	})
	rframe := resp[4:]
	respCases := map[string][]byte{
		"span records truncated": rframe[:len(rframe)-5],
		"span count overruns":    mutate(rframe, 3, 200), // claims 200 spans, frame has 1
		"v1 version":             mutate(rframe, 0, 1),
		"future version":         mutate(rframe, 0, ProtoVersion+1),
	}
	for name, f := range respCases {
		if _, err := DecodeResponse(f); err == nil {
			t.Errorf("%s: DecodeResponse accepted malformed frame", name)
		}
	}
}

// FuzzTracedFrame fuzzes the trace block's encode→decode path:
// arbitrary trace ids (0 = untraced), flags and span payloads must
// round-trip exactly, and arbitrary mutations of a valid frame must
// never panic the parsers.
func FuzzTracedFrame(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint8(3), []byte{1, 2, 3}, -1, byte(0))
	f.Add(uint64(0xffffffffffffffff), uint64(7), uint8(0), []byte{}, 0, byte(99))
	f.Add(uint64(0xbeef), uint64(1), uint8(250), []byte{0, 0, 128, 63}, 4, byte(2))
	f.Fuzz(func(t *testing.T, traceID, flags uint64, nspans uint8, payload []byte, mutIdx int, mutVal byte) {
		bits := make([]uint32, len(payload)/4)
		for i := range bits {
			for j := 0; j < 4; j++ {
				bits[i] |= uint32(payload[i*4+j]) << (8 * j)
			}
		}
		spans := make([]telemetry.SpanRecord, int(nspans))
		for i := range spans {
			spans[i] = telemetry.SpanRecord{
				Start: int64(traceID) + int64(i), Dur: int64(flags ^ uint64(i)),
				Proc: uint8(i % 4), Stage: uint8(i % 10),
			}
		}

		req := &Request{Op: OpEval, Type: TFloat32, Name: "exp", ID: 9, Bits: bits,
			TraceID: traceID, TraceFlags: flags}
		enc, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("encode traced request: %v", err)
		}
		pr, err := ParseRequest(enc[4:])
		if err != nil {
			t.Fatalf("parse traced request: %v", err)
		}
		if pr.TraceID != traceID || pr.TraceFlags != flags || pr.Count != len(bits) {
			t.Fatalf("request trace context mismatch: %+v", pr)
		}

		resp := &Response{Status: StatusOK, Type: TFloat32, ID: 9, Bits: bits,
			TraceID: traceID, TraceFlags: flags, Spans: spans}
		renc, err := AppendResponse(nil, resp)
		if err != nil {
			t.Fatalf("encode traced response: %v", err)
		}
		rgot, err := DecodeResponse(renc[4:])
		if err != nil {
			t.Fatalf("decode traced response: %v", err)
		}
		if rgot.TraceID != traceID || rgot.TraceFlags != flags || len(rgot.Spans) != len(spans) {
			t.Fatalf("response trace context mismatch: %+v", rgot)
		}
		for i := range spans {
			if rgot.Spans[i] != spans[i] {
				t.Fatalf("span[%d]: got %+v want %+v", i, rgot.Spans[i], spans[i])
			}
		}

		// Mutations must never panic; they may parse or error, nothing else.
		if mutIdx >= 0 {
			if mf := enc[4:]; mutIdx < len(mf) {
				ParseRequest(mutate(mf, mutIdx, mutVal))
			}
			if mf := renc[4:]; mutIdx < len(mf) {
				DecodeResponse(mutate(mf, mutIdx, mutVal))
			}
		}
	})
}

// TestEndToEndTrace drives traced requests through a live server. The
// first call on a freshly dialled client, with no Ping before it, must
// come back with its trace id echoed and the three backend pipeline
// spans (queue, coalesce, kernel) stamped with plausible timings —
// while results stay bit-exact with the in-process library. An
// untraced call on the same connection then carries no spans.
func TestEndToEndTrace(t *testing.T) {
	_, addr := startServer(t, Config{Workers: 2})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	in, want := expWorkload(64)
	dst := make([]uint32, len(in))
	done := make(chan *Call, 1)

	const traceID = 0xdecafbad
	call := <-c.GoTraced(TFloat32, "exp", dst, in, done, 0, traceID, 0).Done
	if call.Err != nil || call.Status != StatusOK {
		t.Fatalf("traced call: status %s err %v", StatusText(call.Status), call.Err)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("bits[%d]: got %#x want %#x", i, dst[i], want[i])
		}
	}
	if call.TraceID != traceID {
		t.Fatalf("trace id: got %#x want %#x", call.TraceID, traceID)
	}
	if call.IssuedNs == 0 || call.SentNs < call.IssuedNs {
		t.Errorf("client stamps: issued %d sent %d", call.IssuedNs, call.SentNs)
	}
	stages := map[uint8]telemetry.SpanRecord{}
	for _, s := range call.Spans {
		if s.Proc != telemetry.ProcBackend {
			t.Errorf("span %s from proc %d, want backend", telemetry.SpanName(s.Proc, s.Stage), s.Proc)
		}
		stages[s.Stage] = s
	}
	for _, st := range []uint8{telemetry.StageQueue, telemetry.StageCoalesce, telemetry.StageKernel} {
		s, ok := stages[st]
		if !ok {
			t.Errorf("missing backend span %s", telemetry.SpanName(telemetry.ProcBackend, st))
			continue
		}
		if s.Start <= 0 || s.Dur < 0 {
			t.Errorf("span %s has implausible timing: start %d dur %d",
				telemetry.SpanName(s.Proc, s.Stage), s.Start, s.Dur)
		}
	}

	call = <-c.Go(TFloat32, "exp", dst, in, done).Done
	if call.Err != nil || call.Status != StatusOK {
		t.Fatalf("untraced call: status %s err %v", StatusText(call.Status), call.Err)
	}
	if call.TraceID != 0 || len(call.Spans) != 0 {
		t.Errorf("untraced call came back with trace id %#x and %d spans", call.TraceID, len(call.Spans))
	}
}
