package proxy

import (
	"testing"

	"rlibm32/internal/server"
	"rlibm32/internal/telemetry"
)

// TestProxyTraceStitch drives a traced request, the first on a freshly
// dialled connection, through the full relay — client → proxy →
// backend — and checks that the response carries
// one trace id with spans from both the proxy tier (admit, ringwalk,
// forward) and the backend tier (queue, coalesce, kernel): the
// stitched cross-process timeline the flight tooling renders.
func TestProxyTraceStitch(t *testing.T) {
	b1, _ := startBackend(t, "")
	b2, _ := startBackend(t, "")
	p, addr := startProxy(t, Config{Backends: []string{b1, b2}})

	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	in, want := expVec(64)
	dst := make([]uint32, len(in))
	done := make(chan *server.Call, 1)
	const traceID = 0xfeedc0de

	call := <-c.GoTraced(server.TFloat32, "exp", dst, in, done, 0, traceID, 0).Done
	if call.Err != nil || call.Status != server.StatusOK {
		t.Fatalf("traced call: status %s err %v", server.StatusText(call.Status), call.Err)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("bits[%d]: got %#x want %#x", i, dst[i], want[i])
		}
	}
	if call.TraceID != traceID {
		t.Fatalf("trace id: got %#x want %#x", call.TraceID, traceID)
	}

	byProc := map[uint8]map[uint8]bool{}
	for _, s := range call.Spans {
		if byProc[s.Proc] == nil {
			byProc[s.Proc] = map[uint8]bool{}
		}
		byProc[s.Proc][s.Stage] = true
		if s.Start <= 0 || s.Dur < 0 {
			t.Errorf("span %s has implausible timing: start %d dur %d",
				telemetry.SpanName(s.Proc, s.Stage), s.Start, s.Dur)
		}
	}
	for _, st := range []uint8{telemetry.StageAdmit, telemetry.StageRingWalk, telemetry.StageForward} {
		if !byProc[telemetry.ProcProxy][st] {
			t.Errorf("missing proxy span %s (got %v)",
				telemetry.SpanName(telemetry.ProcProxy, st), call.Spans)
		}
	}
	for _, st := range []uint8{telemetry.StageQueue, telemetry.StageCoalesce, telemetry.StageKernel} {
		if !byProc[telemetry.ProcBackend][st] {
			t.Errorf("missing backend span %s (got %v)",
				telemetry.SpanName(telemetry.ProcBackend, st), call.Spans)
		}
	}

	// The relay also feeds the observability surfaces: the traced-frame
	// counter and the always-on flight ring both saw this request.
	if got := p.Metrics().TracedFrames.Load(); got < 1 {
		t.Errorf("rlibmproxy_traced_frames_total = %d, want >= 1", got)
	}
	if got := p.Flight().Recorded(); got < 1 {
		t.Errorf("flight recorder saw %d events, want >= 1", got)
	}
}
