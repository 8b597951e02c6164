package transport

import (
	"fmt"
	"net"
	"testing"
)

// BenchmarkFramedConnRoundTrip measures framed send+recv over an
// in-memory duplex pipe, with an echo goroutine on the far side; both
// ends receive into the one chunk their connection keeps.
func BenchmarkFramedConnRoundTrip(b *testing.B) {
	for _, size := range []int{64, 1024, 4096} {
		b.Run(fmt.Sprintf("frame=%d", size), func(b *testing.B) {
			near, far := net.Pipe()
			defer near.Close()
			defer far.Close()
			echo := NewFramedConn(far)
			go func() {
				for {
					frame, err := echo.RecvFrame()
					if err != nil {
						return
					}
					if err := echo.SendFrame(frame); err != nil {
						return
					}
				}
			}()
			conn := NewFramedConn(near)
			payload := make([]byte, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := conn.SendFrame(payload); err != nil {
					b.Fatal(err)
				}
				if _, err := conn.RecvFrame(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFramedConnPipelined measures how many system calls a frame
// costs on a real loopback socket with a window of frames in flight:
// the client sends the window as one batch and reads the echoes, the
// far side echoes each window back as one batch. The Read and Write
// calls that reach the client's socket are reported per frame. With one
// frame in flight a frame is exactly one write and at most one read
// (header and body come out of the same read); with sixteen, a burst
// shares them. Neither end allocates: a connection reuses its send
// scratch and its receive chunk, and the echo side copies the frames it
// holds across receive calls into buffers of its own.
func BenchmarkFramedConnPipelined(b *testing.B) {
	for _, inflight := range []int{1, 16} {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) {
			near, far := loopbackPair(b)
			echo := NewFramedConn(far)
			go func() {
				window := make([][]byte, inflight)
				for n := 0; ; {
					frame, err := echo.RecvFrame()
					if err != nil {
						return
					}
					window[n] = append(window[n][:0], frame...)
					if n++; n < inflight {
						continue
					}
					if err := echo.SendFrames(window); err != nil {
						return
					}
					n = 0
				}
			}()
			counted := &countingConn{Conn: near}
			conn := NewFramedConn(counted)
			payload := make([]byte, 1024)
			window := make([][]byte, inflight)
			for i := range window {
				window[i] = payload
			}
			round := func() {
				if err := conn.SendFrames(window); err != nil {
					b.Fatal(err)
				}
				for range window {
					if _, err := conn.RecvFrame(); err != nil {
						b.Fatal(err)
					}
				}
			}
			// The first window makes both ends' buffers; B/op is what a
			// window costs after that.
			round()
			counted.reads.Store(0)
			counted.writes.Store(0)
			rounds := (b.N + inflight - 1) / inflight
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < rounds; i++ {
				round()
			}
			b.StopTimer()
			frames := float64(rounds * inflight)
			b.ReportMetric(float64(counted.writes.Load())/frames, "writes/frame")
			b.ReportMetric(float64(counted.reads.Load())/frames, "reads/frame")
		})
	}
}

// BenchmarkChanConnRoundTrip measures the in-process pipe the benchmark
// harness uses, including the arena-carved delivery copy.
func BenchmarkChanConnRoundTrip(b *testing.B) {
	a, peer := NewChanPipe()
	defer a.Close()
	defer peer.Close()
	go func() {
		for {
			frame, err := peer.RecvFrame()
			if err != nil {
				return
			}
			if err := peer.SendFrame(frame); err != nil {
				return
			}
		}
	}()
	payload := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.SendFrame(payload); err != nil {
			b.Fatal(err)
		}
		if _, err := a.RecvFrame(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSecureChannelRoundTrip measures the record-protection cost
// on top of the in-process pipe (seal, copy, open — no per-record
// buffer allocations).
func BenchmarkSecureChannelRoundTrip(b *testing.B) {
	a, peer := NewChanPipe()
	defer a.Close()
	defer peer.Close()
	serverID, err := NewIdentity()
	if err != nil {
		b.Fatal(err)
	}
	clientID, err := NewIdentity()
	if err != nil {
		b.Fatal(err)
	}
	type hs struct {
		sc  *SecureConn
		err error
	}
	done := make(chan hs, 1)
	go func() {
		sc, err := Handshake(peer, serverID, false, VerifyAny())
		done <- hs{sc, err}
	}()
	client, err := Handshake(a, clientID, true, VerifyExact(serverID.Public))
	if err != nil {
		b.Fatal(err)
	}
	server := <-done
	if server.err != nil {
		b.Fatal(server.err)
	}
	go func() {
		for {
			frame, err := server.sc.RecvFrame()
			if err != nil {
				return
			}
			if err := server.sc.SendFrame(frame); err != nil {
				return
			}
		}
	}()
	payload := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.SendFrame(payload); err != nil {
			b.Fatal(err)
		}
		if _, err := client.RecvFrame(); err != nil {
			b.Fatal(err)
		}
	}
}
