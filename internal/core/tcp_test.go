package core

import (
	"bytes"
	"net"
	"sync"
	"testing"

	"securekeeper/internal/client"
	"securekeeper/internal/transport"
)

// TestServeExternalOverTCP exercises the skserver/skclient path: a real
// TCP listener per replica, framed transport, secure-channel handshake,
// and the per-connection entry enclave for the SecureKeeper variant.
func TestServeExternalOverTCP(t *testing.T) {
	for _, v := range []Variant{Vanilla, TLS, SecureKeeper} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			cluster := newTestCluster(t, v)
			cl := dialTCPSession(t, cluster, 0, v)
			if _, err := cl.Create(ctxbg, "/tcp", []byte("over-the-wire"), 0); err != nil {
				t.Fatalf("create: %v", err)
			}
			data, _, err := cl.Get(ctxbg, "/tcp")
			if err != nil || !bytes.Equal(data, []byte("over-the-wire")) {
				t.Fatalf("get = %q, %v", data, err)
			}
		})
	}
}

// dialTCPSession opens a client session to replica i the way skclient
// reaches skserver: one loopback TCP connection, served by
// ServeExternal over a FramedConn, with the variant's secure channel
// pinned to the replica's key. The session and the serving goroutine
// are torn down with the test.
func dialTCPSession(t *testing.T, cluster *Cluster, i int, v Variant) *client.Client {
	t.Helper()
	return dialTCPServed(t, v, cluster.ReplicaPublicKey(i), func(conn transport.Conn) error {
		return cluster.ServeExternal(i, conn)
	})
}

// dialTCPServed is dialTCPSession against any replica: serve is handed
// the server's end of the connection, pub is the key the client pins.
// Both ends overwrite every frame at their next receive (under the
// secure channel, which opens its records in place), so a stage that
// keeps bytes of a frame past its receive call reads poison.
func dialTCPServed(t *testing.T, v Variant, pub []byte, serve func(transport.Conn) error) *client.Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_ = serve(transport.NewPoisonConn(transport.NewFramedConn(conn)))
	}()

	tcp, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var conn transport.Conn = transport.NewPoisonConn(transport.NewFramedConn(tcp))
	if v != Vanilla {
		id, err := transport.NewIdentity()
		if err != nil {
			t.Fatal(err)
		}
		conn, err = transport.Handshake(conn, id, true, transport.VerifyExact(pub))
		if err != nil {
			t.Fatalf("handshake: %v", err)
		}
	}
	cl, err := client.NewSession(conn, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cl.Close()
		_ = tcp.Close()
		wg.Wait()
	})
	return cl
}

// TestServeExternalRejectsWrongPin: a client pinning the wrong replica
// key must fail the handshake (the §4.1 out-of-band key property).
func TestServeExternalRejectsWrongPin(t *testing.T) {
	cluster := newTestCluster(t, SecureKeeper)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_ = cluster.ServeExternal(0, transport.NewFramedConn(conn))
	}()

	tcp, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	id, err := transport.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	// Pin replica 1's key while talking to replica 0.
	_, err = transport.Handshake(transport.NewFramedConn(tcp), id, true,
		transport.VerifyExact(cluster.ReplicaPublicKey(1)))
	if err == nil {
		t.Fatal("handshake with wrong pinned key must fail")
	}
}
