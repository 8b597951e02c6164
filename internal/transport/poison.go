package transport

// PoisonConn is a test decorator that makes Conn's receive contract
// bite on every call instead of whenever the inner connection happens
// to reuse its buffer: at the start of each receive call it overwrites
// every frame it handed out in the previous one. A consumer that kept a
// frame across its next receive call without copying it reads the
// poison, whatever the inner connection is (a ChanConn, whose frames
// nobody reuses, included). One reader at a time, like any Conn.
type PoisonConn struct {
	Conn
	out [][]byte // handed out by the last receive call
}

// poisonByte is what a frame that outlived its receive call is filled
// with.
const poisonByte = 0xEE

// NewPoisonConn wraps inner.
func NewPoisonConn(inner Conn) *PoisonConn { return &PoisonConn{Conn: inner} }

func (c *PoisonConn) poison() {
	for i, f := range c.out {
		for j := range f {
			f[j] = poisonByte
		}
		c.out[i] = nil
	}
	c.out = c.out[:0]
}

// RecvFrame implements Conn.
func (c *PoisonConn) RecvFrame() ([]byte, error) {
	c.poison()
	frame, err := c.Conn.RecvFrame()
	if err == nil {
		c.out = append(c.out, frame)
	}
	return frame, err
}

// RecvFrames implements Conn.
func (c *PoisonConn) RecvFrames(dst [][]byte) ([][]byte, error) {
	c.poison()
	base := len(dst)
	dst, err := c.Conn.RecvFrames(dst)
	c.out = append(c.out, dst[base:]...)
	return dst, err
}
