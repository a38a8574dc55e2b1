package p4rt

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"p4guard/internal/dtrace"
	"p4guard/internal/switchsim"
	"p4guard/internal/telemetry"
)

// Server is the switch-side agent: it exposes the detector table of one
// behavioural switch over the p4rt protocol and pushes digests to every
// connected controller.
type Server struct {
	sw          *switchsim.Switch
	ln          net.Listener
	sendTimeout time.Duration

	mu     sync.Mutex
	conns  map[net.Conn]*connState
	closed bool

	// Control-plane counters, atomics so handlers never contend on mu.
	programs      atomic.Uint64
	deltas        atomic.Uint64
	writes        atomic.Uint64
	counterReads  atomic.Uint64
	statsReads    atomic.Uint64
	digestBatches atomic.Uint64
	digestPackets atomic.Uint64

	wg   sync.WaitGroup
	stop chan struct{}
}

// ServerOption customizes Serve/ServeListener.
type ServerOption func(*Server)

// WithSendTimeout bounds each frame write to a controller connection
// (default 5s). A controller that stops reading — or a black-holed link —
// trips the deadline and the connection is dropped, so one stuck peer can
// never wedge the digest pump or a request handler. <=0 keeps the default.
func WithSendTimeout(d time.Duration) ServerOption {
	return func(s *Server) {
		if d > 0 {
			s.sendTimeout = d
		}
	}
}

// Serve starts listening on addr ("127.0.0.1:0" picks a free port) and
// pumping digests every interval (<=0 means 10ms).
func Serve(addr string, sw *switchsim.Switch, digestInterval time.Duration, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("p4rt: listen: %w", err)
	}
	return ServeListener(ln, sw, digestInterval, opts...)
}

// ServeListener serves the agent on an already-bound listener; tests wrap
// it with fault injection (internal/faultnet) before handing it over.
func ServeListener(ln net.Listener, sw *switchsim.Switch, digestInterval time.Duration, opts ...ServerOption) (*Server, error) {
	if digestInterval <= 0 {
		digestInterval = 10 * time.Millisecond
	}
	s := &Server{
		sw:          sw,
		ln:          ln,
		sendTimeout: 5 * time.Second,
		conns:       make(map[net.Conn]*connState),
		stop:        make(chan struct{}),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		s.acceptLoop()
	}()
	go func() {
		defer s.wg.Done()
		s.digestPump(digestInterval)
	}()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// RegisterTelemetry exports the agent's control-plane counters.
func (s *Server) RegisterTelemetry(reg *telemetry.Registry) {
	sw := telemetry.Label{Key: "switch", Value: s.sw.Name}
	reqs := []struct {
		typ string
		c   *atomic.Uint64
	}{
		{"program", &s.programs},
		{"delta", &s.deltas},
		{"write", &s.writes},
		{"counters", &s.counterReads},
		{"stats", &s.statsReads},
	}
	for _, r := range reqs {
		c := r.c
		reg.CounterFunc("p4guard_p4rt_requests_total", "p4rt requests handled, by type.",
			func() float64 { return float64(c.Load()) }, sw, telemetry.Label{Key: "type", Value: r.typ})
	}
	reg.CounterFunc("p4guard_p4rt_digest_batches_total", "Digest batches pushed to controllers.",
		func() float64 { return float64(s.digestBatches.Load()) }, sw)
	reg.CounterFunc("p4guard_p4rt_digest_packets_total", "Digested packets pushed to controllers.",
		func() float64 { return float64(s.digestPackets.Load()) }, sw)
	reg.GaugeFunc("p4guard_p4rt_connections", "Connected controllers.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.conns))
		}, sw)
}

// Close stops the listener, closes every connection, and waits for all
// server goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.stop)
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = &connState{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	_ = conn.Close()
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.dropConn(conn)
	for {
		// The frame is this iteration's: every handler below is done with
		// it before it returns — a table copies the keys it keeps out of
		// the row section — so a big one is recycled for the next read.
		frame, err := readFrame(conn)
		if err != nil {
			return
		}
		env, err := splitFrame(frame)
		if err != nil {
			return
		}
		var resp Response
		switch env.Type {
		case TypeHello:
			// A peer of another version cannot read this one's rows: it
			// is told so where it waits for its hello_ack, and dropped.
			var h Hello
			if err := DecodeBody(env, &h); err != nil || h.Version != Version {
				reason := fmt.Sprintf("p4rt: peer speaks version %d, switch %s speaks %d", h.Version, s.sw.Name, Version)
				if err != nil {
					reason = err.Error()
				}
				_ = s.send(conn, TypeResponse, env.ID, Response{Error: reason})
				return
			}
			ack := HelloAck{ServerName: s.sw.Name, Node: s.sw.Node(), Version: Version}
			if err := s.send(conn, TypeHelloAck, env.ID, ack); err != nil {
				return
			}
			s.mu.Lock()
			if st := s.conns[conn]; st != nil {
				st.ready = true
			}
			s.mu.Unlock()
			continue
		case TypeProgram:
			s.programs.Add(1)
			resp = s.applyProgram(env)
		case TypeDelta:
			s.deltas.Add(1)
			resp = s.applyDelta(env)
		case TypeWrite:
			s.writes.Add(1)
			resp = s.applyWrite(env)
		case TypeCounters:
			s.counterReads.Add(1)
			resp = s.readCounters()
		case TypeStats:
			s.statsReads.Add(1)
			resp = s.readSwitchStats()
		case TypeHeartbeat:
			resp = Response{OK: true}
		default:
			resp = Response{Error: fmt.Sprintf("unknown message type %q", env.Type)}
		}
		recycleFrame(frame)
		if err := s.send(conn, TypeResponse, env.ID, resp); err != nil {
			return
		}
	}
}

// connState carries per-connection server state; its mutex serializes
// concurrent writers (request handler vs digest pump) on one connection.
// ready (guarded by Server.mu) flips once the hello handshake completes:
// the digest pump skips non-ready conns so a queued digest backlog can
// never race ahead of the hello_ack on a fresh connection.
type connState struct {
	mu    sync.Mutex
	ready bool
}

func (s *Server) send(conn net.Conn, typ MsgType, id uint64, body any) error {
	s.mu.Lock()
	st := s.conns[conn]
	s.mu.Unlock()
	if st == nil {
		return net.ErrClosed
	}
	frame, own, err := encodeFrame(typ, id, body)
	if err != nil {
		return err
	}
	if own {
		defer recycleFrame(frame)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if s.sendTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(s.sendTimeout))
		defer func() { _ = conn.SetWriteDeadline(time.Time{}) }()
	}
	return writeFrame(conn, frame)
}

// applyProgram swaps the detector table for the program in env, decoded
// straight into the rows the table adopts.
func (s *Server) applyProgram(env Envelope) Response {
	tr, at := s.arrival()
	p, err := decodeProgram(env)
	sp := span(tr, at, p.traceID, p.spanID, dtrace.DetailProgram)
	defer sp.End()
	if err == nil {
		err = s.sw.ProgramDetector(p.offsets, p.def, p.entries)
	}
	return answer(p.traceID, p.spanID, p.installed, err)
}

// applyDelta applies an incremental program edit. Any failure — base
// signature mismatch, key layout mismatch, malformed edit — comes back
// as a Response error, which the controller surfaces as a RejectError
// and answers with a full program swap.
func (s *Server) applyDelta(env Envelope) Response {
	tr, at := s.arrival()
	d, def, pd, err := decodeDelta(env)
	sp := span(tr, at, d.TraceID, d.SpanID, dtrace.DetailProgram)
	defer sp.End()
	if err == nil {
		err = s.sw.ApplyDetectorDelta(d.Offsets, def, pd)
	}
	return answer(d.TraceID, d.SpanID, pd.Size(), err)
}

func (s *Server) applyWrite(env Envelope) Response {
	tr, at := s.arrival()
	w, e, err := decodeWrite(env)
	sp := span(tr, at, w.TraceID, w.SpanID, dtrace.DetailApply)
	defer sp.End()
	if err == nil {
		_, err = s.sw.InsertDetectorEntry(e)
	}
	return answer(w.TraceID, w.SpanID, 1, err)
}

// arrival reads the switch's tracer once for a request and, while it is
// armed, the time the request's handling began: the apply span starts
// there, so decoding the body is inside it. Disarmed, it costs the
// tracer's one atomic load.
func (s *Server) arrival() (*dtrace.Tracer, time.Time) {
	tr := s.sw.Tracer()
	if tr.Enabled() {
		return tr, time.Now()
	}
	return tr, time.Time{}
}

// span opens a request's apply span under the controller's, via the wire
// trace context, from the request's arrival: inert when the tracer is
// disarmed or the request carries no context.
func span(tr *dtrace.Tracer, at time.Time, traceID, spanID uint64, detail string) dtrace.ActiveSpan {
	return tr.StartDetail(dtrace.SpanContext{Trace: dtrace.TraceID(traceID), Span: dtrace.SpanID(spanID)}, detail, at)
}

// answer is a table request's response, echoing its trace context: the
// refusal, which left the switch as it was, or the rows installed.
func answer(traceID, spanID uint64, installed int, err error) Response {
	if err != nil {
		return Response{Error: err.Error(), TraceID: traceID, SpanID: spanID}
	}
	return Response{OK: true, Installed: installed, TraceID: traceID, SpanID: spanID}
}

func (s *Server) readCounters() Response {
	st, err := s.sw.DetectorStats()
	if err != nil {
		return Response{Error: err.Error()}
	}
	return Response{OK: true, Entries: st.Entries, Hits: st.Hits, Misses: st.Misses}
}

// readSwitchStats snapshots the switch's data-plane state for the fleet
// aggregation scrape.
func (s *Server) readSwitchStats() Response {
	run, dq, det := s.sw.WireStats()
	return Response{OK: true, Switch: &WireSwitchStats{
		Name:        s.sw.Name,
		Node:        s.sw.Node(),
		Packets:     int64(run.Packets),
		Allowed:     int64(run.Allowed),
		Dropped:     int64(run.Dropped),
		Digested:    int64(run.Digested),
		ParseFailed: int64(run.ParseFailed),
		RateDropped: int64(run.RateDropped),

		DigestDepth:   dq.Depth,
		DigestOffered: dq.Offered,
		DigestDrained: dq.Drained,
		DigestDropped: dq.Dropped,

		TableEntries: det.Entries,
		TableHits:    det.Hits,
		TableMisses:  det.Misses,
	}}
}

// digestPump periodically drains switch digests to all connected
// controllers.
func (s *Server) digestPump(interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.pumpDigests()
		}
	}
}

// pumpDigests is one tick of the pump: up to 256 queued digests go to
// every controller whose handshake has completed.
func (s *Server) pumpDigests() {
	// An idle switch — nearly every tick — has nothing queued: ask that
	// before taking the server lock and listing connections.
	if s.sw.DigestQueueStats().Depth == 0 {
		return
	}
	// Graceful degradation while the controller is away: leave digests
	// queued instead of draining them into the void. The data plane
	// keeps forwarding on its configured miss action, the bounded queue
	// absorbs the burst, and overflow is dropped with accounting
	// (Offered == Drained + Dropped + Depth) rather than silently.
	// Only hello-completed conns count: a connection mid-handshake
	// must see hello_ack as its first frame, never a digest.
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c, st := range s.conns {
		if st.ready {
			conns = append(conns, c)
		}
	}
	s.mu.Unlock()
	if len(conns) == 0 {
		return
	}
	ds := s.sw.DrainDigests(256)
	if len(ds) == 0 {
		return
	}
	s.digestBatches.Add(1)
	s.digestPackets.Add(uint64(len(ds)))
	tracer := s.sw.Tracer()
	msg := DigestMsg{Packets: make([]WirePacket, 0, len(ds))}
	for _, d := range ds {
		wp := FromPacket(d.Pkt)
		// One trace per digest: its root digest_wait span covers
		// pipeline enqueue → pump drain, and its context rides the wire
		// so the controller's fan-in span can parent to it. Inert (one
		// atomic load) while the tracer is nil or disarmed.
		if sp := tracer.StartTraceAt(dtrace.StageDigestWait, d.At); sp.Active() {
			ctx := sp.Context()
			wp.TraceID, wp.SpanID = uint64(ctx.Trace), uint64(ctx.Span)
			sp.End()
		}
		msg.Packets = append(msg.Packets, wp)
	}
	for _, c := range conns {
		if err := s.send(c, TypeDigest, 0, msg); err != nil && !errors.Is(err, net.ErrClosed) {
			s.dropConn(c)
		}
	}
}
