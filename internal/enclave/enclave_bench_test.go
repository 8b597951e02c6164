package enclave

import (
	"bytes"
	"fmt"
	"testing"

	"securekeeper/internal/sgx"
	"securekeeper/internal/skcrypto"
	"securekeeper/internal/wire"
)

// benchEntry provisions an entry enclave for microbenchmarks.
func benchEntry(b *testing.B) (*Entry, *skcrypto.Codec) {
	b.Helper()
	rt := sgx.NewRuntime(sgx.EPCUsableBytes, sgx.DefaultCostModel(), false)
	key := bytes.Repeat([]byte{7}, skcrypto.KeySize)
	ks, err := NewKeyServerWithKey(key,
		sgx.MeasureCode(EntryCodeIdentity), sgx.MeasureCode(CounterCodeIdentity))
	if err != nil {
		b.Fatal(err)
	}
	ks.TrustPlatform(rt.QuoteVerificationKey())
	entry, err := NewEntry(rt)
	if err != nil {
		b.Fatal(err)
	}
	if err := ProvisionEntry(entry, ks, nil); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(entry.Close)
	codec, err := skcrypto.NewCodec(key)
	if err != nil {
		b.Fatal(err)
	}
	return entry, codec
}

// BenchmarkEntryGetRoundTrip measures the full entry-enclave cost of one
// GET: request transformation (path encryption towards the store) plus
// response transformation (payload decryption and binding check).
func BenchmarkEntryGetRoundTrip(b *testing.B) {
	for _, size := range []int{0, 1024, 4096} {
		b.Run(fmt.Sprintf("payload=%d", size), func(b *testing.B) {
			entry, codec := benchEntry(b)
			const path = "/bench/target"
			stored, err := codec.EncryptPayload(path, make([]byte, size), false)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := wire.MarshalPair(
					&wire.RequestHeader{Xid: int32(i + 1), Op: wire.OpGetData},
					&wire.GetDataRequest{Path: path},
				)
				if _, err := entry.ProcessRequest(req); err != nil {
					b.Fatal(err)
				}
				resp := wire.MarshalPair(
					&wire.ReplyHeader{Xid: int32(i + 1), Err: wire.ErrOK},
					&wire.GetDataResponse{Data: stored, Stat: wire.Stat{DataLength: int32(len(stored))}},
				)
				if _, err := entry.ProcessResponse(resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEntrySetRequest measures the SET request transformation
// (path encryption plus payload encryption with binding).
func BenchmarkEntrySetRequest(b *testing.B) {
	entry, _ := benchEntry(b)
	payload := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := wire.MarshalPair(
			&wire.RequestHeader{Xid: int32(i + 1), Op: wire.OpSetData},
			&wire.SetDataRequest{Path: "/bench/target", Data: payload, Version: -1},
		)
		out, err := entry.ProcessRequest(req)
		if err != nil {
			b.Fatal(err)
		}
		// Drain the FIFO queue so it does not grow across iterations.
		_ = out
		resp := wire.MarshalPair(
			&wire.ReplyHeader{Xid: int32(i + 1), Err: wire.ErrOK},
			&wire.SetDataResponse{},
		)
		if _, err := entry.ProcessResponse(resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEntryBatchRoundTrip is BenchmarkEntryGetRoundTrip at 1 KiB
// with the messages crossing batch at a time: one op is one GET through
// ec_request and its reply through ec_response. ecalls/msg is the exact
// number of crossings per message and direction — 1 at batch=1, 1/16 at
// batch=16 (run with a -benchtime multiple of 16x). What the calls
// allocate, without the messages this loop makes, is
// TestEntryRoundTripAllocations'.
func BenchmarkEntryBatchRoundTrip(b *testing.B) {
	for _, batch := range []int{1, 16} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			entry, codec := benchEntry(b)
			const path = "/bench/target"
			stored, err := codec.EncryptPayload(path, make([]byte, 1024), false)
			if err != nil {
				b.Fatal(err)
			}
			in := make([][]byte, 0, batch)
			out := make([][]byte, 0, batch)
			ecalls0 := entry.Enclave().EcallCount()
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += len(in) {
				n := min(batch, b.N-done)
				in = in[:0]
				for i := 0; i < n; i++ {
					in = append(in, wire.MarshalPair(
						&wire.RequestHeader{Xid: int32(done + i + 1), Op: wire.OpGetData},
						&wire.GetDataRequest{Path: path},
					))
				}
				if out, err = entry.ProcessRequests(in, out[:0]); err != nil {
					b.Fatal(err)
				}
				in = in[:0]
				for i := 0; i < n; i++ {
					in = append(in, wire.MarshalPair(
						&wire.ReplyHeader{Xid: int32(done + i + 1), Err: wire.ErrOK},
						&wire.GetDataResponse{Data: stored, Stat: wire.Stat{DataLength: int32(len(stored))}},
					))
				}
				if out, err = entry.ProcessResponses(in, out[:0]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(entry.Enclave().EcallCount()-ecalls0)/float64(2*b.N), "ecalls/msg")
		})
	}
}
