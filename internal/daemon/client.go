package daemon

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// Client is the thin side of the protocol: it frames requests, demuxes
// pipelined replies by packet id, and turns error packets back into Go
// errors. One Client is safe for concurrent use — `symbex -daemon` uses
// one call at a time, but tests and the bench harness multiplex.
type Client struct {
	rw     io.ReadWriter
	closer io.Closer

	wm sync.Mutex // serializes WritePacket

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]chan *Packet
	err     error // terminal read-loop error; set once

	// ServerName is the daemon's self-reported name from the handshake.
	ServerName string
}

// Dial connects to a daemon on a unix socket and performs the
// handshake.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("unix", addr)
	if err != nil {
		return nil, fmt.Errorf("daemon: dial %s: %w", addr, err)
	}
	c, err := NewClient(conn, conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClient wraps an established stream (socket, or a child daemon's
// stdio pipes) and performs the handshake. closer may be nil.
func NewClient(rw io.ReadWriter, closer io.Closer) (*Client, error) {
	c := &Client{rw: rw, closer: closer, pending: map[uint32]chan *Packet{}}

	// Handshake synchronously, before the demux loop exists: the first
	// reply on the wire answers the hello.
	if err := WritePacket(rw, &Packet{ID: c.id(), Kind: KindHello, Body: body(Hello{Version: ProtocolVersion})}); err != nil {
		return nil, err
	}
	reply, err := ReadPacket(rw)
	if err != nil {
		return nil, fmt.Errorf("daemon: handshake read: %w", err)
	}
	switch reply.Kind {
	case KindHello:
		var h Hello
		if err := decode(reply.Body, &h); err != nil {
			return nil, fmt.Errorf("daemon: handshake: %w", err)
		}
		if h.Version != ProtocolVersion {
			return nil, fmt.Errorf("daemon: protocol version mismatch: daemon %d, client %d", h.Version, ProtocolVersion)
		}
		c.ServerName = h.Name
	case KindError:
		var e ErrorBody
		_ = decode(reply.Body, &e)
		return nil, fmt.Errorf("daemon: handshake rejected: %s", e.Message)
	default:
		return nil, fmt.Errorf("daemon: handshake: unexpected %q packet", reply.Kind)
	}

	go c.readLoop()
	return c, nil
}

func (c *Client) id() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	return c.nextID
}

// readLoop demuxes replies to their waiting calls until the stream
// dies, then fails every outstanding call.
func (c *Client) readLoop() {
	for {
		p, err := ReadPacket(c.rw)
		if err != nil {
			c.mu.Lock()
			if c.err == nil {
				c.err = err
				if errors.Is(err, io.EOF) {
					c.err = errors.New("daemon: connection closed")
				}
			}
			for id, ch := range c.pending {
				close(ch)
				delete(c.pending, id)
			}
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		ch := c.pending[p.ID]
		delete(c.pending, p.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- p
		}
		// Replies nobody awaits (e.g. id-0 decode errors for packets we
		// never sent) are dropped.
	}
}

// call sends one request and blocks for its reply.
func (c *Client) call(kind string, reqBody any, replyBody any) error {
	id := c.id()
	ch := make(chan *Packet, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.pending[id] = ch
	c.mu.Unlock()

	c.wm.Lock()
	err := WritePacket(c.rw, &Packet{ID: id, Kind: kind, Body: body(reqBody)})
	c.wm.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return err
	}

	p, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = errors.New("daemon: connection closed")
		}
		return err
	}
	switch p.Kind {
	case KindReply:
		return decode(p.Body, replyBody)
	case KindError:
		var e ErrorBody
		if err := decode(p.Body, &e); err != nil {
			return fmt.Errorf("daemon: undecodable error reply: %w", err)
		}
		if e.Overloaded {
			return &OverloadedError{Message: e.Message}
		}
		return errors.New(e.Message)
	default:
		return fmt.Errorf("daemon: unexpected %q reply", p.Kind)
	}
}

// OverloadedError marks an admission-control rejection: the request
// was well-formed and may be retried later.
type OverloadedError struct{ Message string }

func (e *OverloadedError) Error() string { return e.Message }

// Verify runs one verify request on the daemon.
func (c *Client) Verify(req *VerifyRequest) (*VerifyReply, error) {
	var reply VerifyReply
	if err := c.call(KindVerify, req, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Compile runs one compile-only request on the daemon.
func (c *Client) Compile(req *CompileRequest) (*CompileReply, error) {
	var reply CompileReply
	if err := c.call(KindCompile, req, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// DistExplore ships one encoded frontier shard to the daemon and
// blocks until the shard is drained.
func (c *Client) DistExplore(req *DistExploreRequest) (*DistExploreReply, error) {
	var reply DistExploreReply
	if err := c.call(KindDistExplore, req, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Stats fetches the daemon's counter snapshot.
func (c *Client) Stats() (*StatsReply, error) {
	var reply StatsReply
	if err := c.call(KindStats, struct{}{}, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Close tears the connection down; outstanding calls fail.
func (c *Client) Close() error {
	if c.closer != nil {
		return c.closer.Close()
	}
	return nil
}
