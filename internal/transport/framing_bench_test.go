package transport

import (
	"fmt"
	"net"
	"runtime"
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

// pipelinedEcho connects a FramedConn over a real loopback socket to a
// far side that echoes each window of inflight frames back as one
// batch, copying the frames it holds across receive calls into buffers
// of its own. It returns the client's round — a window of 1 KiB frames
// sent as one batch, then its echoes received — and the client socket,
// which counts the Read and Write calls that reach it.
func pipelinedEcho(tb testing.TB, inflight int) (round func(), counted *countingConn) {
	near, far := loopbackPair(tb)
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
	counted = &countingConn{Conn: near}
	conn := NewFramedConn(counted)
	window := make([][]byte, inflight)
	for i := range window {
		window[i] = make([]byte, 1024)
	}
	return func() {
		if err := conn.SendFrames(window); err != nil {
			tb.Fatal(err)
		}
		for range window {
			if _, err := conn.RecvFrame(); err != nil {
				tb.Fatal(err)
			}
		}
	}, counted
}

// BenchmarkFramedConnPipelined measures how many system calls a frame
// costs with a window of frames in flight (pipelinedEcho). The Read and
// Write calls that reach the client's socket are reported per frame.
// With one frame in flight a frame is exactly one write and at most one
// read (header and body come out of the same read); with sixteen, a
// burst shares them. Neither end allocates
// (TestFramedConnPipelinedAllocations).
func BenchmarkFramedConnPipelined(b *testing.B) {
	for _, inflight := range []int{1, 16} {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) {
			round, counted := pipelinedEcho(b, inflight)
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

// TestFramedConnPipelinedAllocations: once the first windows have made
// both ends' buffers, a hundred windows of one frame and of sixteen
// allocate no object at either end — a connection reuses its send
// scratch and its receive chunk.
//
// The count is the whole process's. A goroutine an earlier test left
// reading a connection allocates its error when the connection closes
// and the goroutine gets to run, and the runtime allocates an m and two
// gs when it starts an OS thread for a stalled socket call; on a loaded
// machine either can fall inside the count. A count during which a
// goroutine came or went or a thread was started is taken again, up to
// ten times.
func TestFramedConnPipelinedAllocations(t *testing.T) {
	for _, inflight := range []int{1, 16} {
		round, _ := pipelinedEcho(t, inflight)
		var got float64
		for try := 0; try < 10; try++ {
			goroutines := runtime.NumGoroutine()
			threads, _ := runtime.ThreadCreateProfile(nil)
			got = testing.AllocsPerRun(1, func() {
				for i := 0; i < 100; i++ {
					round()
				}
			})
			if now, _ := runtime.ThreadCreateProfile(nil); now == threads && runtime.NumGoroutine() == goroutines {
				break
			}
		}
		if got != 0 {
			t.Errorf("inflight=%d: 100 windows allocated %v objects, want 0", inflight, got)
		}
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
