package server

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Op: OpPing},
		{Op: OpEval, Type: TFloat32, Name: "exp", ID: 7, Bits: []uint32{0x3f800000, 0, 0xffffffff}},
		{Op: OpEval, Type: TPosit32, Name: "ln", ID: 1, Bits: []uint32{0x40000000}},
		{Op: OpEval, Type: TBfloat16, Name: "sinpi", ID: 9, Bits: []uint32{0x3f80, 0xffff}},
		{Op: OpEval, Type: TFloat16, Name: "cosh", ID: 2, Bits: []uint32{}},
		{Op: OpEval, Type: TPosit16, Name: "log10", ID: 3, Bits: []uint32{1, 2, 3, 4, 5}},
	}
	for _, req := range reqs {
		enc, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("encode %+v: %v", req, err)
		}
		got, err := DecodeRequest(enc[4:])
		if err != nil {
			t.Fatalf("decode %+v: %v", req, err)
		}
		if got.Op != req.Op || got.Type != req.Type || got.Name != req.Name || got.ID != req.ID {
			t.Errorf("header mismatch: got %+v want %+v", got, req)
		}
		if len(got.Bits) != len(req.Bits) {
			t.Fatalf("bits length: got %d want %d", len(got.Bits), len(req.Bits))
		}
		width := TypeWidth(req.Type)
		for i := range req.Bits {
			want := req.Bits[i]
			if width == 2 {
				want &= 0xffff
			}
			if got.Bits[i] != want {
				t.Errorf("bits[%d]: got %#x want %#x", i, got.Bits[i], want)
			}
		}
	}

	resps := []*Response{
		{Status: StatusOK, Type: TFloat32, ID: 7, Bits: []uint32{0x40000000}},
		{Status: StatusBusy, Type: TFloat32, ID: 8},
		{Status: StatusMalformed},
		{Status: StatusOK, Type: TPosit16, ID: 1, Bits: []uint32{0xabcd, 0x1234}},
	}
	for _, resp := range resps {
		enc, err := AppendResponse(nil, resp)
		if err != nil {
			t.Fatalf("encode %+v: %v", resp, err)
		}
		got, err := DecodeResponse(enc[4:])
		if err != nil {
			t.Fatalf("decode %+v: %v", resp, err)
		}
		if got.Status != resp.Status || got.Type != resp.Type || got.ID != resp.ID || len(got.Bits) != len(resp.Bits) {
			t.Errorf("response mismatch: got %+v want %+v", got, resp)
		}
	}
}

func TestDecodeRequestErrors(t *testing.T) {
	valid, _ := AppendRequest(nil, &Request{Op: OpEval, Type: TFloat32, Name: "exp", Bits: []uint32{1}})
	frame := valid[4:]

	cases := map[string][]byte{
		"truncated header": frame[:8],
		"bad version":      append([]byte{99}, frame[1:]...),
		"v1 version":       mutate(frame, 0, 1),
		"bad opcode":       mutate(frame, 1, 77),
		"bad type":         mutate(frame, 2, 200),
		"length mismatch":  frame[:len(frame)-1],
		"ping with body":   mutate(frame, 1, OpPing),
	}
	for name, f := range cases {
		if _, err := DecodeRequest(f); err == nil {
			t.Errorf("%s: decode accepted malformed frame", name)
		}
	}
}

func mutate(b []byte, i int, v byte) []byte {
	out := bytes.Clone(b)
	out[i] = v
	return out
}

func TestReadFrameTooLarge(t *testing.T) {
	enc, _ := AppendRequest(nil, &Request{Op: OpEval, Type: TFloat32, Name: "exp", Bits: make([]uint32, 100)})
	r := bufio.NewReader(bytes.NewReader(enc))
	if _, _, err := readFrame(r, nil, 64); !errors.Is(err, ErrFrameSize) {
		t.Errorf("oversized frame: err = %v, want ErrFrameSize", err)
	}
}

// FuzzFrameRoundTrip checks encode→decode identity for request and
// response frames over arbitrary headers, trace blocks and payloads.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint8(OpEval), uint8(TFloat32), "exp", uint32(1), uint64(0), uint64(0), []byte{0, 0, 128, 63})
	f.Add(uint8(OpPing), uint8(0), "", uint32(0), uint64(7), uint64(1), []byte{})
	f.Add(uint8(OpEval), uint8(TPosit16), "ln", uint32(9), uint64(0xfeedc0de), uint64(0), []byte{1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, op, typ uint8, name string, id uint32, traceID, flags uint64, payload []byte) {
		width := TypeWidth(typ)
		if width == 0 {
			width = 4
		}
		bits := make([]uint32, len(payload)/width)
		for i := range bits {
			for j := 0; j < width; j++ {
				bits[i] |= uint32(payload[i*width+j]) << (8 * j)
			}
		}
		req := &Request{Op: op, Type: typ, Name: name, ID: id, Bits: bits, TraceID: traceID, TraceFlags: flags}
		enc, err := AppendRequest(nil, req)
		if err != nil {
			return // unencodable input (name too long, unknown type)
		}
		got, err := DecodeRequest(enc[4:])
		if err != nil {
			// Encodable but undecodable is fine only for headers the
			// encoder does not validate (bad opcode, ping payloads).
			if op == OpEval && TypeWidth(typ) != 0 {
				t.Fatalf("round trip rejected valid eval frame: %v", err)
			}
			return
		}
		if got.Op != req.Op || got.Type != req.Type || got.ID != req.ID ||
			got.TraceID != traceID || got.TraceFlags != flags {
			t.Fatalf("header mismatch: got %+v want %+v", got, req)
		}
		if got.Op == OpEval {
			if got.Name != req.Name || len(got.Bits) != len(req.Bits) {
				t.Fatalf("payload mismatch: got %+v want %+v", got, req)
			}
			for i := range req.Bits {
				want := req.Bits[i]
				if TypeWidth(req.Type) == 2 {
					want &= 0xffff
				}
				if got.Bits[i] != want {
					t.Fatalf("bits[%d]: got %#x want %#x", i, got.Bits[i], want)
				}
			}
		}

		resp := &Response{Status: op, Type: typ, ID: id, Bits: bits, TraceID: traceID, TraceFlags: flags}
		renc, err := AppendResponse(nil, resp)
		if err != nil {
			return
		}
		rgot, err := DecodeResponse(renc[4:])
		if err != nil {
			t.Fatalf("response round trip rejected: %v", err)
		}
		if rgot.Status != resp.Status || rgot.ID != resp.ID || len(rgot.Bits) != len(resp.Bits) ||
			rgot.TraceID != traceID || rgot.TraceFlags != flags {
			t.Fatalf("response mismatch: got %+v want %+v", rgot, resp)
		}
	})
}

// FuzzServerDecode feeds arbitrary bytes to a live connection handler
// and requires that the server never panics and that everything it
// sends back is a well-formed response frame, after which the
// connection closes cleanly.
func FuzzServerDecode(f *testing.F) {
	valid, _ := AppendRequest(nil, &Request{Op: OpEval, Type: TFloat32, Name: "exp", Bits: []uint32{0x3f800000}})
	ping, _ := AppendRequest(nil, &Request{Op: OpPing})
	f.Add(valid)
	f.Add(ping)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add(bytes.Repeat([]byte{0}, 64))

	s := New(Config{MaxFrame: 1 << 12, Workers: 2, ReadTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	go s.Serve(ln)
	addr := ln.Addr().String()

	f.Fuzz(func(t *testing.T, data []byte) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Skip("dial failed (listener gone?)")
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		go func() {
			conn.Write(data)
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
		}()
		br := bufio.NewReader(conn)
		var scratch []byte
		for {
			frame, buf, err := readFrame(br, scratch, DefaultMaxFrame)
			scratch = buf
			if err != nil {
				// Any read error counts as the connection closing
				// (FIN vs RST is a race the server cannot control —
				// its close may discard queued responses). The
				// properties under test are "no panic" and "every
				// frame that does arrive is well-formed".
				return
			}
			if _, err := DecodeResponse(frame); err != nil {
				t.Fatalf("server sent malformed response: %v", err)
			}
		}
	})
}
