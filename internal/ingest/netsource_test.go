package ingest

import (
	"bytes"
	"errors"
	"io"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"ebbiot/internal/events"
)

// drain consumes src to EOF over fixed windows and returns everything
// delivered plus the terminal error.
func drain(src *NetSource, windowUS int64) ([]events.Event, error) {
	var out []events.Event
	for start := int64(0); ; start += windowUS {
		var err error
		out, err = src.NextWindow(out, start, start+windowUS)
		if err != nil {
			return out, err
		}
	}
}

func TestNetSourceDeliversInOrder(t *testing.T) {
	src := NewNetSource(NetSourceConfig{})
	want := testEvents(300, 0)
	// Push as three batches of 100, cut at awkward offsets vs the 77us
	// consumer windows. offer owns what it is given, so each batch is a
	// copy.
	for i := 0; i < 3; i++ {
		if err := src.offer(0, uint64(i+1), slices.Clone(want[i*100:(i+1)*100])); err != nil {
			t.Fatal(err)
		}
	}
	src.finish()
	got, err := drain(src, 77)
	if err != io.EOF {
		t.Fatalf("terminal error: got %v, want io.EOF", err)
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %v want %v", i, got[i], want[i])
		}
	}
	st := src.SourceStats()
	if st.Batches != 3 || st.Events != 300 || st.DroppedBatches != 0 || st.DroppedEvents != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestNetSourceTiesAtCuts holds NextWindow's binary search to a linear
// scan on a stream of tied timestamps: runs of equal T straddle window
// ends and batch boundaries, and every window must deliver exactly the
// events a linear scan delivers, so an event at T = end always waits for
// the next window.
func TestNetSourceTiesAtCuts(t *testing.T) {
	// Runs of 1 to 4 equal timestamps, 7 µs apart.
	var stream []events.Event
	for k := 0; len(stream) < 400; k++ {
		for r := 0; r <= k%4; r++ {
			stream = append(stream, events.Event{X: int16(len(stream) % 240), Y: int16(k % 180), T: int64(k * 7), P: events.On})
		}
	}
	for _, per := range []int{1, 2, 3, 5, 8, 64} {
		for _, windowUS := range []int64{1, 7, 14, 21, 50} {
			src := NewNetSource(NetSourceConfig{QueueBatches: len(stream)})
			for lo, seq := 0, uint64(1); lo < len(stream); lo, seq = lo+per, seq+1 {
				if err := src.offer(0, seq, slices.Clone(stream[lo:min(lo+per, len(stream))])); err != nil {
					t.Fatal(err)
				}
			}
			src.finish()
			next := 0
			for start := int64(0); ; start += windowUS {
				end := start + windowUS
				cut := next
				for cut < len(stream) && stream[cut].T < end {
					cut++
				}
				got, err := src.NextWindow(nil, start, end)
				if !slices.Equal(got, stream[next:cut]) {
					t.Fatalf("batches of %d, window [%d, %d): got %v, want %v", per, start, end, got, stream[next:cut])
				}
				next = cut
				if err != nil {
					if err != io.EOF || next != len(stream) {
						t.Fatalf("batches of %d, %d µs windows: ended with %v after %d of %d events", per, windowUS, err, next, len(stream))
					}
					break
				}
			}
		}
	}
}

func TestNetSourceBlockPolicyLosesNothing(t *testing.T) {
	src := NewNetSource(NetSourceConfig{QueueBatches: 2, Policy: Block})
	const batches = 20
	var producerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < batches; i++ {
			evs := testEvents(50, int64(i*1000))
			if err := src.offer(0, uint64(i+1), evs); err != nil {
				producerErr = err
				return
			}
		}
		src.finish()
	}()
	got, err := drain(src, 333)
	wg.Wait()
	if producerErr != nil {
		t.Fatal(producerErr)
	}
	if err != io.EOF {
		t.Fatalf("terminal error: got %v, want io.EOF", err)
	}
	if len(got) != batches*50 {
		t.Fatalf("delivered %d events, want %d", len(got), batches*50)
	}
	st := src.SourceStats()
	if st.DroppedBatches != 0 || st.DroppedEvents != 0 {
		t.Fatalf("block policy dropped: %+v", st)
	}
}

func TestNetSourceDropOldest(t *testing.T) {
	src := NewNetSource(NetSourceConfig{QueueBatches: 2, Policy: DropOldest})
	// Four batches into a depth-2 queue with no consumer: batches 1 and 2
	// must be evicted, 3 and 4 survive.
	for i := 0; i < 4; i++ {
		if err := src.offer(0, uint64(i+1), testEvents(10, int64(i*1000))); err != nil {
			t.Fatal(err)
		}
	}
	src.finish()
	got, err := drain(src, 10_000)
	if err != io.EOF {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("delivered %d events, want 20", len(got))
	}
	if got[0].T != 2000 {
		t.Fatalf("first surviving event at t=%d, want 2000 (batches 1-2 evicted)", got[0].T)
	}
	st := src.SourceStats()
	if st.Batches != 4 || st.Events != 40 || st.DroppedBatches != 2 || st.DroppedEvents != 20 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestNetSourceDropNewest(t *testing.T) {
	src := NewNetSource(NetSourceConfig{QueueBatches: 2, Policy: DropNewest})
	for i := 0; i < 4; i++ {
		if err := src.offer(0, uint64(i+1), testEvents(10, int64(i*1000))); err != nil {
			t.Fatal(err)
		}
	}
	src.finish()
	got, err := drain(src, 10_000)
	if err != io.EOF {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("delivered %d events, want 20", len(got))
	}
	if last := got[len(got)-1].T; last != 1009 {
		t.Fatalf("last surviving event at t=%d, want 1009 (batches 3-4 discarded)", last)
	}
	st := src.SourceStats()
	if st.DroppedBatches != 2 || st.DroppedEvents != 20 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestNetSourceSeqDiscipline(t *testing.T) {
	src := NewNetSource(NetSourceConfig{})
	if err := src.offer(0, 1, testEvents(5, 0)); err != nil {
		t.Fatal(err)
	}
	// Exact duplicate of batch 1.
	if err := src.offer(0, 1, testEvents(5, 0)); err != nil {
		t.Fatal(err)
	}
	// Gap: 2 and 3 never arrive.
	if err := src.offer(0, 4, testEvents(5, 100)); err != nil {
		t.Fatal(err)
	}
	// Reordered: an old sequence number after a newer one.
	if err := src.offer(0, 2, testEvents(5, 50)); err != nil {
		t.Fatal(err)
	}
	src.finish()
	got, err := drain(src, 1000)
	if err != io.EOF {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("delivered %d events, want 10 (dup and reordered batches dropped)", len(got))
	}
	st := src.SourceStats()
	if st.DupBatches != 2 {
		t.Fatalf("DupBatches = %d, want 2", st.DupBatches)
	}
	if st.SeqGaps != 2 {
		t.Fatalf("SeqGaps = %d, want 2", st.SeqGaps)
	}
	if st.DupEvents != 10 {
		t.Fatalf("DupEvents = %d, want 10", st.DupEvents)
	}
	if st.DroppedEvents != 0 {
		t.Fatalf("DroppedEvents = %d, want 0 (duplicates are not policy drops)", st.DroppedEvents)
	}
}

// A resume takes the stream over at the high-water mark claim returns; a
// batch the superseded connection decodes afterwards is refused uncounted,
// so the replayed copy is the only one delivered.
func TestNetSourceClaimFencesSupersededEpoch(t *testing.T) {
	src := NewNetSource(NetSourceConfig{})
	if from := src.claim(1); from != 0 {
		t.Fatalf("first claim resumes from %d, want 0", from)
	}
	if err := src.offer(1, 1, testEvents(5, 0)); err != nil {
		t.Fatal(err)
	}
	if from := src.claim(2); from != 1 {
		t.Fatalf("takeover resumes from %d, want 1", from)
	}
	if err := src.offer(1, 2, testEvents(5, 100)); !errors.Is(err, errSuperseded) {
		t.Fatalf("offer from the superseded epoch: err = %v, want errSuperseded", err)
	}
	if err := src.offer(2, 2, testEvents(5, 100)); err != nil {
		t.Fatal(err)
	}
	src.finish()
	got, err := drain(src, 1000)
	if err != io.EOF {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("delivered %d events, want 10", len(got))
	}
	if st := src.SourceStats(); st.DupBatches != 0 || st.DroppedEvents != 0 || st.Epoch != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestNetSourceHeartbeat(t *testing.T) {
	src := NewNetSource(NetSourceConfig{})
	if err := src.offer(0, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := src.offer(0, 2, testEvents(3, 0)); err != nil {
		t.Fatal(err)
	}
	src.finish()
	got, err := drain(src, 1000)
	if err != io.EOF || len(got) != 3 {
		t.Fatalf("got %d events, err %v", len(got), err)
	}
	st := src.SourceStats()
	if st.Batches != 2 || st.Events != 3 || st.SeqGaps != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestNetSourceRejectsTimeRegression(t *testing.T) {
	src := NewNetSource(NetSourceConfig{})
	if err := src.offer(0, 1, testEvents(5, 1000)); err != nil {
		t.Fatal(err)
	}
	err := src.offer(0, 2, testEvents(5, 0))
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("time-regressing batch: got %v, want ErrBadFrame", err)
	}
}

func TestNetSourceOfferAfterClose(t *testing.T) {
	src := NewNetSource(NetSourceConfig{})
	src.finish()
	if err := src.offer(0, 1, testEvents(1, 0)); err != io.ErrClosedPipe {
		t.Fatalf("offer after close: got %v, want io.ErrClosedPipe", err)
	}
}

func TestNetSourceFaultTolerantByDefault(t *testing.T) {
	src := NewNetSource(NetSourceConfig{})
	if err := src.offer(0, 1, testEvents(5, 0)); err != nil {
		t.Fatal(err)
	}
	src.fail(io.ErrUnexpectedEOF)
	got, err := drain(src, 1000)
	if err != io.EOF {
		t.Fatalf("tolerant stream must end as EOF, got %v", err)
	}
	if len(got) != 5 {
		t.Fatalf("queued batch must survive the fault: got %d events", len(got))
	}
	st := src.SourceStats()
	if st.Faults != 1 || st.LastError == "" {
		t.Fatalf("fault not recorded: %+v", st)
	}
	// A second fault after close must not double-count.
	src.fail(io.ErrUnexpectedEOF)
	if st := src.SourceStats(); st.Faults != 1 {
		t.Fatalf("fault double-counted: %+v", st)
	}
}

func TestNetSourceFailFastSurfacesFault(t *testing.T) {
	src := NewNetSource(NetSourceConfig{FailFast: true})
	if err := src.offer(0, 1, testEvents(5, 0)); err != nil {
		t.Fatal(err)
	}
	src.fail(io.ErrUnexpectedEOF)
	got, err := drain(src, 1000)
	if err == nil || err == io.EOF || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("fail-fast stream: got %v, want wrapped io.ErrUnexpectedEOF", err)
	}
	// Queued data is still drained before the error surfaces.
	if len(got) != 5 {
		t.Fatalf("got %d events before the fault surfaced, want 5", len(got))
	}
}

func TestParseDropPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want DropPolicy
	}{{"block", Block}, {"drop-oldest", DropOldest}, {"drop-newest", DropNewest}} {
		got, err := ParseDropPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseDropPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseDropPolicy("sometimes"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestNetSourceRecycledBuffers holds NetSource to its buffer-ownership
// contract. A producer decodes real frames into pooled buffers, as the
// server does, while a consumer drains the stream: under every policy, and
// with duplicate offers, each delivered event must equal the reference. A
// buffer returned to the pool while still queued or undelivered would be
// overwritten by a later decode and fail the comparison (or, under -race,
// trip the detector).
func TestNetSourceRecycledBuffers(t *testing.T) {
	const batches = 300
	// Batch sizes vary so that some recycled buffers are too small.
	var bounds []int
	total := 0
	for k := 0; k < batches; k++ {
		bounds = append(bounds, total)
		total += 1 + k*37%300
	}
	bounds = append(bounds, total)
	ref := testEvents(total, 0) // T is the global index
	frames := make([][]byte, batches)
	for k := range frames {
		frames[k] = mustBatch(t, uint64(k+1), ref[bounds[k]:bounds[k+1]])
	}

	for _, policy := range []DropPolicy{Block, DropOldest, DropNewest} {
		t.Run(policy.String(), func(t *testing.T) {
			src := NewNetSource(NetSourceConfig{QueueBatches: 2, Policy: policy})
			// Under a drop policy the consumer starts only after a burst of
			// offers, so batches are shed for certain.
			burst := 0
			if policy != Block {
				burst = 6
			}
			started := make(chan struct{})
			type result struct {
				evs []events.Event
				err error
			}
			done := make(chan result, 1)
			go func() {
				<-started
				evs, err := drain(src, 97)
				done <- result{evs, err}
			}()

			var rd bytes.Reader
			dec := newDecoder(&rd, events.DAVIS240)
			offer := func(k int) {
				rd.Reset(frames[k])
				f, err := dec.next(getBatch())
				if err != nil {
					t.Error(err)
					return
				}
				if err := src.offer(0, f.seq, f.evs); err != nil {
					t.Error(err)
				}
			}
			dups := 0
			for k := 0; k < batches; k++ {
				if k == burst {
					close(started)
				}
				offer(k)
				if k%7 == 3 {
					offer(k) // a replayed duplicate
					dups++
				}
			}
			src.finish()
			res := <-done
			if res.err != io.EOF {
				t.Fatalf("drain: %v", res.err)
			}
			last := int64(-1)
			for i, e := range res.evs {
				if e.T <= last || e.T >= int64(total) || e != ref[e.T] {
					t.Fatalf("delivered event %d = %+v after t=%d: not the reference event at its time", i, e, last)
				}
				last = e.T
			}
			st := src.SourceStats()
			if int64(len(res.evs)) != int64(total)-st.DroppedEvents {
				t.Fatalf("delivered %d events, want %d minus %d dropped", len(res.evs), total, st.DroppedEvents)
			}
			if st.DupBatches != int64(dups) {
				t.Fatalf("DupBatches = %d, want %d", st.DupBatches, dups)
			}
			if (st.DroppedBatches > 0) != (policy != Block) {
				t.Fatalf("policy %v dropped %d batches", policy, st.DroppedBatches)
			}
		})
	}
}

// raceEnabled reports whether the test binary runs under the race
// detector, where sync.Pool drops items at random.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return true // unknown: assume the pool cannot be relied on
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestIngestCycleAllocFree guards the allocation-free ingest path: once
// warm, decoding an ENG-window-sized batch into a pooled buffer, offering
// it and delivering a window from it allocates nothing.
func TestIngestCycleAllocFree(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const per, runs = engBatchEvents, 50
	frames := make([][]byte, runs+2)
	for k := range frames {
		frames[k] = mustBatch(t, uint64(k+1), testEvents(per, int64(k*per)))
	}
	src := NewNetSource(NetSourceConfig{})
	var rd bytes.Reader
	dec := newDecoder(&rd, events.DAVIS240)
	var buf []events.Event
	k := 0
	cycle := func() {
		rd.Reset(frames[k])
		f, err := dec.next(getBatch())
		if err != nil {
			t.Fatal(err)
		}
		if err := src.offer(0, f.seq, f.evs); err != nil {
			t.Fatal(err)
		}
		if k > 0 {
			// Batch k proves window k-1 complete.
			start := int64((k - 1) * per)
			if buf, err = src.NextWindow(buf[:0], start, start+per); err != nil || len(buf) != per {
				t.Fatalf("window %d: %d events, err %v", k-1, len(buf), err)
			}
		}
		k++
	}
	cycle() // batch 0 has no window to close yet
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Fatalf("decode → offer → NextWindow allocates %v times per batch, want 0", allocs)
	}
}
