package p4rt

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"
)

// Client is the controller-side connection to one switch agent.
type Client struct {
	conn       net.Conn
	serverName string
	serverNode string
	rpcTimeout time.Duration

	writeMu sync.Mutex // serializes frame writes
	mu      sync.Mutex // guards nextID/pending/closed
	nextID  uint64
	pending map[uint64]chan Envelope
	closed  bool

	// done is closed when the read loop exits — the single signal that the
	// connection is dead. Every in-flight call selects on it, so no waiter
	// can hang on a connection that will never answer.
	done chan struct{}

	onDigest func([]WirePacket)
	wg       sync.WaitGroup
}

// DialTimeout bounds connection establishment (and the handshake) when the
// caller's context carries no deadline of its own.
const DialTimeout = 5 * time.Second

// DefaultRPCTimeout bounds each RPC when neither the call context nor a
// WithRPCTimeout option supplies a deadline.
const DefaultRPCTimeout = 5 * time.Second

// Dialer opens the transport connection; tests substitute fault-injecting
// implementations (internal/faultnet).
type Dialer func(ctx context.Context, addr string) (net.Conn, error)

// ClientOption customizes DialContext.
type ClientOption func(*clientOptions)

type clientOptions struct {
	rpcTimeout time.Duration
	dialer     Dialer
}

// WithRPCTimeout sets the per-call deadline applied when a call's context
// has none (<=0 keeps DefaultRPCTimeout).
func WithRPCTimeout(d time.Duration) ClientOption {
	return func(o *clientOptions) {
		if d > 0 {
			o.rpcTimeout = d
		}
	}
}

// WithDialer substitutes the transport dialer (fault injection, proxies).
func WithDialer(d Dialer) ClientOption {
	return func(o *clientOptions) {
		if d != nil {
			o.dialer = d
		}
	}
}

// DialContext connects to a switch agent, performs the hello handshake,
// and starts the read loop. Establishment and handshake are bounded by
// ctx (or DialTimeout when ctx has no deadline). onDigest (may be nil)
// receives asynchronous packet samples; it is called from the read loop,
// so it must not block on RPCs issued over the same client.
func DialContext(ctx context.Context, addr, clientName string, onDigest func([]WirePacket), opts ...ClientOption) (*Client, error) {
	o := clientOptions{
		rpcTimeout: DefaultRPCTimeout,
		dialer: func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		},
	}
	for _, opt := range opts {
		opt(&o)
	}
	if _, has := ctx.Deadline(); !has {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DialTimeout)
		defer cancel()
	}
	conn, err := o.dialer(ctx, addr)
	if err != nil {
		return nil, fmt.Errorf("p4rt: dial %s: %w", addr, dialCause(ctx, err))
	}
	c := &Client{
		conn:       conn,
		rpcTimeout: o.rpcTimeout,
		pending:    make(map[uint64]chan Envelope),
		done:       make(chan struct{}),
		onDigest:   onDigest,
	}
	// Handshake happens before the read loop starts, synchronously, under
	// the context deadline (cleared afterwards for the long-lived loop).
	// Cancellation mid-handshake poisons the conn deadline so the blocked
	// I/O returns immediately instead of riding out the full deadline.
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	}
	watchStop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Unix(1, 0)) })
	defer watchStop()
	if err := WriteMsg(conn, TypeHello, 1, Hello{SwitchName: clientName}); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("p4rt: handshake: %w", dialCause(ctx, err))
	}
	env, err := ReadMsg(conn)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("p4rt: handshake: %w", dialCause(ctx, err))
	}
	if env.Type != TypeHelloAck {
		_ = conn.Close()
		return nil, &RejectError{Op: TypeHello, Reason: fmt.Sprintf("got %q, want hello_ack", env.Type)}
	}
	var ack HelloAck
	if err := DecodeBody(env, &ack); err != nil {
		_ = conn.Close()
		return nil, err
	}
	if !watchStop() {
		// ctx fired during the handshake tail: the conn deadline is already
		// poisoned, so don't hand out a client born dead.
		_ = conn.Close()
		return nil, fmt.Errorf("p4rt: dial %s: %w", addr, dialCause(ctx, errors.New("handshake interrupted")))
	}
	_ = conn.SetDeadline(time.Time{})
	c.serverName = ack.ServerName
	c.serverNode = ack.Node
	c.mu.Lock()
	c.nextID = 1
	c.mu.Unlock()

	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.readLoop()
	}()
	return c, nil
}

// dialCause maps context expiry during dial/handshake onto the typed
// taxonomy: deadline → ErrTimeout, cancellation → ctx.Err(). The conn
// deadline mirrors the ctx deadline, so an I/O timeout is the same event
// even when the poller fires a moment before ctx.Err() flips.
func dialCause(ctx context.Context, err error) error {
	switch {
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrTimeout, err)
	case ctx.Err() != nil:
		return fmt.Errorf("%w: %w", ctx.Err(), err)
	case errors.Is(err, os.ErrDeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrTimeout, err)
	default:
		return err
	}
}

// ServerName returns the switch name from the handshake.
func (c *Client) ServerName() string { return c.serverName }

// ServerNode returns the switch's fabric node identity from the
// handshake ("" when the switch is not attached to a topology).
func (c *Client) ServerNode() string { return c.serverNode }

// Done returns a channel closed when the connection dies (read loop
// exits): peer reset, transport error, or local Close. The controller's
// reconnect supervisor watches it.
func (c *Client) Done() <-chan struct{} { return c.done }

// Close shuts the connection and waits for the read loop, which fails
// every pending call with ErrConnClosed on its way out.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	c.wg.Wait()
	return err
}

// readLoop pumps frames until the connection dies, then fails every
// pending call and closes done. It is the only goroutine that completes
// pending channels, so there is no completer/closer race: a call either
// receives its response or observes done.
func (c *Client) readLoop() {
	defer func() {
		c.mu.Lock()
		for id, ch := range c.pending {
			close(ch)
			delete(c.pending, id)
		}
		c.mu.Unlock()
		close(c.done)
	}()
	for {
		env, err := ReadMsg(c.conn)
		if err != nil {
			return
		}
		switch env.Type {
		case TypeDigest:
			if c.onDigest != nil {
				var msg DigestMsg
				if err := DecodeBody(env, &msg); err == nil {
					c.onDigest(msg.Packets)
				}
			}
		case TypeResponse, TypeHelloAck:
			c.mu.Lock()
			ch := c.pending[env.ID]
			delete(c.pending, env.ID)
			c.mu.Unlock()
			if ch != nil {
				ch <- env
			}
		}
	}
}

// forget drops a pending call registration (timeout/cancel paths).
func (c *Client) forget(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// call issues one request and waits for its response, the context, or
// connection death — whichever comes first. When ctx carries no deadline
// the client's RPC timeout applies, so a dead socket can never block a
// caller forever.
func (c *Client) call(ctx context.Context, typ MsgType, body any) (Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, has := ctx.Deadline(); !has && c.rpcTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.rpcTimeout)
		defer cancel()
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Response{}, fmt.Errorf("%w: %s on closed client", ErrConnClosed, typ)
	}
	c.nextID++
	id := c.nextID
	ch := make(chan Envelope, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	// Encoding happens outside writeMu, and an encoding failure
	// (ErrOversized, ErrMalformed) put nothing on the wire.
	frame, own, err := encodeFrame(typ, id, body)
	if err != nil {
		c.forget(id)
		return Response{}, err
	}
	c.writeMu.Lock()
	err = writeFrame(c.conn, frame)
	c.writeMu.Unlock()
	if own {
		recycleFrame(frame)
	}
	if err != nil {
		c.forget(id)
		// A failed frame write leaves the stream unframed; the connection
		// is unusable. Close it so the read loop (and Done) observe death.
		_ = c.conn.Close()
		return Response{}, fmt.Errorf("%w: %s write: %w", ErrConnClosed, typ, err)
	}
	select {
	case env, ok := <-ch:
		if !ok {
			return Response{}, fmt.Errorf("%w: awaiting %s response", ErrConnClosed, typ)
		}
		var resp Response
		if err := DecodeBody(env, &resp); err != nil {
			return Response{}, err
		}
		if resp.Error != "" {
			return resp, &RejectError{Op: typ, Reason: resp.Error}
		}
		return resp, nil
	case <-c.done:
		c.forget(id)
		return Response{}, fmt.Errorf("%w: awaiting %s response", ErrConnClosed, typ)
	case <-ctx.Done():
		c.forget(id)
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return Response{}, fmt.Errorf("%w: %s", ErrTimeout, typ)
		}
		return Response{}, fmt.Errorf("p4rt: %s: %w", typ, ctx.Err())
	}
}

// ProgramDetector reprograms the switch's detector table.
func (c *Client) ProgramDetector(ctx context.Context, prog Program) (Response, error) {
	return c.call(ctx, TypeProgram, prog)
}

// ProgramDelta applies an incremental program edit to the switch's
// detector table. A pre-delta peer rejects the unknown message type,
// and a switch whose installed base does not match the delta's
// signature refuses it — both surface as a RejectError, the caller's
// cue to fall back to a full ProgramDetector swap.
func (c *Client) ProgramDelta(ctx context.Context, d DeltaMsg) (Response, error) {
	return c.call(ctx, TypeDelta, d)
}

// WriteEntry inserts one reactive entry.
func (c *Client) WriteEntry(ctx context.Context, e WireEntry) (Response, error) {
	return c.call(ctx, TypeWrite, Write{Entry: e})
}

// WriteEntryTraced inserts one reactive entry carrying trace context, so
// the switch can record its apply span under the caller's install span.
// Zero IDs make it identical to WriteEntry.
func (c *Client) WriteEntryTraced(ctx context.Context, e WireEntry, traceID, spanID uint64) (Response, error) {
	return c.call(ctx, TypeWrite, Write{Entry: e, TraceID: traceID, SpanID: spanID})
}

// Counters reads the detector table counters.
func (c *Client) Counters(ctx context.Context) (Response, error) {
	return c.call(ctx, TypeCounters, CountersRequest{})
}

// SwitchStats reads the switch's full data-plane stats snapshot (the
// fleet aggregation scrape). A pre-stats peer rejects the unknown
// message type, surfaced as a RejectError.
func (c *Client) SwitchStats(ctx context.Context) (WireSwitchStats, error) {
	resp, err := c.call(ctx, TypeStats, StatsRequest{})
	if err != nil {
		return WireSwitchStats{}, err
	}
	if resp.Switch == nil {
		return WireSwitchStats{}, &RejectError{Op: TypeStats, Reason: "response carries no switch_stats"}
	}
	return *resp.Switch, nil
}

// Heartbeat checks liveness.
func (c *Client) Heartbeat(ctx context.Context) error {
	_, err := c.call(ctx, TypeHeartbeat, struct{}{})
	return err
}
