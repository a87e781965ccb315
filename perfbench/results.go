package main

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// result assembles the last line: the end-to-end metrics of an untraced
// run or the per-layer metrics of a traced one. Everything measured is
// also listed on standard error.
func (b *bench) result() result {
	e2e, layers := b.endToEnd(), b.perLayer()
	for _, set := range []map[string]metric{e2e, layers} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(os.Stderr, "%-40s %14.6g %s\n", n, set[n].Value, set[n].Unit)
		}
	}
	m := e2e
	if b.cfg.trace {
		m = layers
	}
	for n, v := range m {
		// JSON has no infinity: a latency percentile that fell on a failed
		// window reads as the largest number instead.
		if math.IsInf(v.Value, 1) {
			v.Value = math.MaxFloat64
			m[n] = v
		}
	}
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}

func (b *bench) endToEnd() map[string]metric {
	lat := medians(b.lat)
	return map[string]metric{
		"setup_s":                {b.setup[0], "s"},
		"events_per_s":           {median(b.capacity.eventsPerS), "events/s"},
		"cpu_us_per_window":      {median(b.capacity.cpuUSPerWin), "us/window"},
		"alloc_bytes_per_window": {median(b.capacity.allocPerWin), "B/window"},
		"latency_ms_p50":         {quantile(lat, 0.5), "ms"},
		"latency_ms_p99":         {quantile(lat, 0.99), "ms"},
		"replay_records_per_s":   {median(b.readRate), "records/s"},
		"precision_iou0.5":       {b.counts.Precision(), "ratio"},
		"recall_iou0.5":          {b.counts.Recall(), "ratio"},
	}
}

func (b *bench) perLayer() map[string]metric {
	lt := &b.layers
	us := func(l layer) metric { return metric{lt.perWindowUS(l), "us/window"} }
	source := func(name string) metric {
		if b.w.source != name {
			return metric{0, "us/window"}
		}
		return us(lSource)
	}
	unattributed := lt.perWindowUS(lCycle) - lt.perWindowUS(lSource) - lt.perWindowUS(lProcess)
	var coverage, appendUS, overhead, sendUS float64
	if lt.ns[lCycle] > 0 {
		coverage = float64(lt.ns[lSource]+lt.ns[lProcess]) / float64(lt.ns[lCycle])
	}
	if lt.records > 0 {
		appendUS = float64(lt.ns[lAppend]) / float64(lt.records) / 1e3
	}
	if base := median(b.capacity.eventsPerS); base > 0 {
		overhead = median(b.traced.eventsPerS) / base
	}
	if b.sendBatches > 0 {
		sendUS = float64(b.sendNS) / float64(b.sendBatches) / 1e3
	}
	var failedRatio float64
	if b.attempted > 0 {
		failedRatio = float64(b.failed) / float64(b.attempted)
	}
	live := medians(b.liveLat)
	var skipped float64
	if b.stages.Windows > 0 {
		skipped = float64(b.stages.Skipped) / float64(b.stages.Windows)
	}
	return map[string]metric{
		"aedat.decode_us_per_window":          source("aedat.decode"),
		"pipeline.source_us_per_window":       source("pipeline.source"),
		"ingest.queue_wait_us_per_window":     source("ingest.queue_wait"),
		"pipeline.unattributed_us_per_window": {unattributed, "us/window"},
		"core.process_us_per_window":          us(lProcess),
		"ebbi.accumulate_us_per_window":       us(lAccumulate),
		"ebbi.median_us_per_window":           us(lMedian),
		"rpn.propose_us_per_window":           us(lPropose),
		"tracker.step_us_per_window":          us(lTrack),
		"core.glue_us_per_window":             us(lGlue),
		"store.append_us_per_record":          {appendUS, "us/record"},
		"store.replay_next_us_per_record":     {median(b.replayNext), "us/record"},
		"pipeline.replay_drain_us_per_record": {median(b.replayDrain), "us/record"},
		"ingest.send_us_per_batch":            {sendUS, "us/batch"},
		"ingest.generator_late_ms_p99":        {quantile(b.lateMS, 0.99), "ms"},
		"ingest.live_latency_ms_p50":          {quantile(live, 0.5), "ms"},
		"ingest.live_latency_ms_p99":          {quantile(live, 0.99), "ms"},
		"ingest.queue_depth_max":              {float64(b.queueMax), "batches"},
		"ingest.dropped_events":               {float64(b.src.DroppedEvents), "count"},
		"ingest.dup_batches":                  {float64(b.src.DupBatches), "count"},
		"ingest.seq_gaps":                     {float64(b.src.SeqGaps), "count"},
		"ingest.faults":                       {float64(b.src.Faults), "count"},
		"ingest.resumes":                      {float64(b.src.Resumes), "count"},
		"alloc.objects_per_window":            {median(b.capacity.mallocsPerWin), "objects/window"},
		"gc.cycles_per_1k_windows":            {median(b.capacity.gcPer1k), "cycles/kwindow"},
		"ebbi.active_fraction":                {b.stages.MeanActiveFraction(), "ratio"},
		"core.skipped_fraction":               {skipped, "ratio"},
		"store.bytes_per_record":              {b.bytesPerRecord, "B/record"},
		"latency.samples":                     {float64(len(b.lat)), "count"},
		"setup.inputs_s":                      {b.setup[1], "s"},
		"setup.system_s":                      {b.setup[2], "s"},
		"trace.coverage":                      {coverage, "ratio"},
		"trace.overhead":                      {overhead, "ratio"},
		"trace.wall_us_per_window":            {median(b.traced.wallUSPerWin), "us/window"},
		"failed_ratio":                        {failedRatio, "ratio"},
	}
}
