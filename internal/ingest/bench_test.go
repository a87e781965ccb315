package ingest

import (
	"bytes"
	"io"
	"testing"

	"ebbiot/internal/events"
)

// engBatchEvents is an ENG window's batch: the ENG replica averages 2,681
// events per 66 ms window, and a sensor sends one batch per window.
const engBatchEvents = 2700

// BenchmarkWireDecode decodes one ENG-window-sized batch frame into a
// recycled buffer, as the server's frame loop does with pooled buffers:
// CRC, structure, polarity, order and address checks included.
func BenchmarkWireDecode(b *testing.B) {
	frame, err := appendBatchFrame(nil, 1, testEvents(engBatchEvents, 0))
	if err != nil {
		b.Fatal(err)
	}
	var rd bytes.Reader
	dec := newDecoder(&rd, events.DAVIS240)
	var buf []events.Event
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(frame)
		f, err := dec.next(buf)
		if err != nil {
			b.Fatal(err)
		}
		buf = f.evs
	}
}

// BenchmarkIngestLoopback streams ENG-window-sized batches from a DialSink
// through a Server into its NetSource over loopback TCP, drained window by
// window by a consumer goroutine; one op is one batch. Sender and receiver
// share the process, so B/op counts both ends: the sink encodes into frame
// buffers its ring recycles and the server decodes into pooled batches,
// so once warm neither allocates per batch.
func BenchmarkIngestLoopback(b *testing.B) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{Streams: []string{"cam0"}, Res: events.DAVIS240})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	sink, err := Dial(srv.Addr().String(), DialConfig{StreamID: "cam0", Res: events.DAVIS240})
	if err != nil {
		b.Fatal(err)
	}
	src := srv.Source("cam0")
	delivered := make(chan int, 1)
	go func() {
		var buf []events.Event
		n := 0
		for start := int64(0); ; start += engBatchEvents {
			var err error
			buf, err = src.NextWindow(buf[:0], start, start+engBatchEvents)
			n += len(buf)
			if err != nil {
				if err != io.EOF {
					b.Error(err)
				}
				delivered <- n
				return
			}
		}
	}()
	evs := testEvents(engBatchEvents, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range evs {
			evs[j].T = int64(i*engBatchEvents + j)
		}
		if err := sink.Send(evs); err != nil {
			b.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		b.Fatal(err)
	}
	n := <-delivered
	b.StopTimer()
	if n != b.N*engBatchEvents {
		b.Fatalf("delivered %d events, want %d", n, b.N*engBatchEvents)
	}
}
