package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"time"

	"repro/internal/burst"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/folding"
	"repro/internal/trace"
)

// layerReps is how many times each layer call is timed; the median is
// reported.
const layerReps = 3

// timed runs fn layerReps times and returns the median wall seconds;
// prep, when non-nil, runs untimed before each call.
func timed(prep, fn func()) float64 {
	var s []float64
	for i := 0; i < layerReps; i++ {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		fn()
		s = append(s, time.Since(t0).Seconds())
	}
	return median(s)
}

// effective fills the option defaults core applies before analysis, so
// the layer calls below get the values the pipeline passes them. The
// checks against the reference Report catch any drift.
func effective(o core.Options) core.Options {
	if o.MinBurstDuration == 0 {
		o.MinBurstDuration = 50_000
	}
	if len(o.Counters) == 0 {
		o.Counters = []counters.Counter{counters.TotIns, counters.FPOps, counters.L1DCM, counters.L2DCM}
	}
	if o.StackBins == 0 {
		o.StackBins = 50
	}
	if o.MaxPhases == 0 {
		o.MaxPhases = 5
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Cluster.Parallelism == 0 {
		o.Cluster.Parallelism = o.Parallelism
	}
	o.Cluster.UseIPC = true
	return o
}

// layers times each layer's public functions on in, fed exactly what the
// pipeline feeds them — the clustering kernels run on ClusterBursts' own
// features, eps and final assignment — and checks every output against
// the reference analysis. analyzeS is the end-to-end analysis time the
// layer sum is compared with.
func layers(t *tally, m map[string]float64, in *input, opts core.Options, sim []float64, analyzeS float64) {
	o := effective(opts)
	par := o.Parallelism
	check := func(what string, err error) { t.op("layer "+what, err) }

	m["sim.run_s"] = median(sim)
	var cp trace.Trace
	m["trace.sort_s"] = timed(func() {
		cp = trace.Trace{Meta: in.tr.Meta,
			Events:  append([]trace.Event(nil), in.tr.Events...),
			Samples: append([]trace.Sample(nil), in.tr.Samples...),
			Comms:   append([]trace.Comm(nil), in.tr.Comms...)}
	}, func() { cp.Sort() })
	check("sort", equalErr("re-sorted trace", sameRecords(cp.Events, in.tr.Events) &&
		sameRecords(cp.Samples, in.tr.Samples) && sameRecords(cp.Comms, in.tr.Comms)))

	// Decode: record-at-a-time versus columnar blocks.
	want := len(in.tr.Events) + len(in.tr.Samples) + len(in.tr.Comms)
	var rows int
	var derr error
	m["trace.decode_row_s"] = timed(nil, func() {
		rows, derr = 0, nil
		sr, err := trace.NewStreamReader(bytes.NewReader(in.raw))
		if err != nil {
			derr = err
			return
		}
		var rec trace.Record
		for derr == nil {
			if err := sr.Next(&rec); err != nil {
				if !errors.Is(err, io.EOF) {
					derr = err
				}
				return
			}
			rows++
		}
	})
	check("decode row", firstErr(derr, equalErr("row decode count", rows == want)))
	m["trace.decode_col_s"] = timed(nil, func() {
		rows, derr = 0, nil
		sr, err := trace.NewStreamReader(bytes.NewReader(in.raw))
		if err != nil {
			derr = err
			return
		}
		blk := trace.NewColBlock(4096)
		for derr == nil {
			if err := sr.NextBlock(blk); err != nil {
				if !errors.Is(err, io.EOF) {
					derr = err
				}
				return
			}
			rows += blk.Len()
		}
	})
	check("decode columnar", firstErr(derr, equalErr("columnar decode count", rows == want)))
	m["trace.records"] = float64(want)
	m["trace.mb"] = float64(len(in.raw)) / 1e6

	// Map half of the algebra on one whole shard: the kept bursts and
	// attached samples Reduce clusters and folds.
	var part *core.Partial
	var perr error
	m["core.mapshard_s"] = timed(nil, func() {
		part, perr = core.MapShard(core.Shard{Spec: core.WholeSpec(), Trace: in.tr}, opts)
	})
	check("mapshard", perr)
	if perr != nil {
		return
	}

	// Burst extraction and sample attachment.
	var all, kept []burst.Burst
	var eerr error
	filter := burst.Filter{MinDuration: o.MinBurstDuration}
	m["burst.extract_s"] = timed(nil, func() {
		if all, eerr = burst.Extract(in.tr); eerr == nil {
			kept, _ = filter.Apply(all)
		}
	})
	check("extract", firstErr(eerr, equalErr("kept bursts", len(all) == part.Bursts && len(kept) == len(part.Kept))))
	m["burst.bursts"] = float64(len(all))
	m["burst.kept"] = float64(len(kept))
	var attached [][]trace.Sample
	m["burst.attach_s"] = timed(nil, func() { attached = burst.AttachSamples(in.tr, kept) })
	samples, partSamples := 0, 0
	for i := range attached {
		samples += len(attached[i])
	}
	for i := range part.Attached {
		partSamples += len(part.Attached[i])
	}
	check("attach", equalErr("attached samples", samples == partSamples))
	m["burst.samples"] = float64(samples)

	// Clustering, then each kernel on ClusterBursts' own inputs.
	ref := in.ref.Clustering
	var res cluster.Result
	pool := make([]burst.Burst, len(part.Kept))
	m["cluster.total_s"] = timed(func() { copy(pool, part.Kept) }, func() { res = cluster.ClusterBursts(pool, o.Cluster) })
	check("cluster", equalErr("clustering", res.K == ref.K && res.Eps == ref.Eps &&
		reflect.DeepEqual(res.Assign, ref.Assign) && sameFloat(res.Silhouette, ref.Silhouette)))
	m["cluster.points"] = float64(len(pool))
	m["cluster.k"] = float64(res.K)
	m["cluster.eps"] = res.Eps
	var eps float64
	m["cluster.autoeps_s"] = timed(nil, func() { eps = cluster.AutoEpsMode(res.Features, res.MinPts, par, o.Cluster.Index) })
	check("autoeps", equalErr("AutoEpsMode(res.Features) vs res.Eps", eps == res.Eps))
	var ms0, ms1 runtime.MemStats
	var allocs []float64
	m["cluster.dbscan_s"] = timed(func() { runtime.ReadMemStats(&ms0) }, func() {
		cluster.DBSCANP(res.Features, res.Eps, res.MinPts, par)
		runtime.ReadMemStats(&ms1)
		allocs = append(allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
	})
	m["cluster.dbscan_alloc_mb"] = median(allocs)
	var sil float64
	m["cluster.silhouette_s"] = timed(nil, func() {
		sil = cluster.SilhouetteSampled(res.Features, res.Assign, o.Cluster.SilhouetteSample, par)
	})
	check("silhouette", equalErr("silhouette on the final assignment", sameFloat(sil, res.Silhouette)))

	// Folding per counter and call stacks per analyzed phase.
	phases := min(res.K, o.MaxPhases)
	insts := make([][]folding.Instance, phases)
	var points, instances int
	for p := range insts {
		insts[p] = folding.InstancesFromBursts(pool, part.Attached, p+1)
		instances += len(insts[p])
		for i := range insts[p] {
			points += len(insts[p][i].Samples)
		}
	}
	folds := make([]map[counters.Counter]*folding.Result, phases)
	m["folding.fold_s"] = timed(nil, func() {
		for p := range insts {
			folds[p] = map[counters.Counter]*folding.Result{}
			for _, c := range o.Counters {
				cfg := o.Fold
				cfg.Counter = c
				if f, err := folding.Fold(insts[p], cfg); err == nil {
					folds[p][c] = f
				}
			}
		}
	})
	stacks := make([]*folding.StackResult, phases)
	m["folding.stacks_s"] = timed(nil, func() {
		for p := range insts {
			stacks[p] = folding.FoldStacks(insts[p], o.StackBins)
		}
	})
	check("fold", foldsMatch(in.ref, folds, stacks))
	m["folding.instances"] = float64(instances)
	m["folding.points"] = float64(points)

	// Reduce and Report encoding.
	var rep *core.Report
	var rerr error
	m["core.reduce_s"] = timed(nil, func() { rep, rerr = core.Reduce([]*core.Partial{part}, nil, opts) })
	check("reduce", rerr)
	if rerr != nil {
		return
	}
	var js []byte
	m["core.encode_s"] = timed(nil, func() { js, rerr = json.Marshal(rep) })
	if rerr == nil {
		var d string
		if d, rerr = reportDigest(js, rep.Pipeline); rerr == nil {
			rerr = in.refCheck(d, rep.Degraded)
		}
	}
	check("encode", rerr)
	m["core.report_mb"] = float64(len(js)) / 1e6
	sum := m["trace.decode_col_s"] + m["burst.extract_s"] + m["burst.attach_s"] + m["cluster.total_s"] +
		m["folding.fold_s"] + m["folding.stacks_s"] + m["core.encode_s"]
	m["core.layer_sum_ratio"] = sum / analyzeS
}

// foldsMatch compares the layer-by-layer folds with the reference
// Report's phases.
func foldsMatch(ref *core.Report, folds []map[counters.Counter]*folding.Result, stacks []*folding.StackResult) error {
	if len(folds) != len(ref.Phases) {
		return fmt.Errorf("%d folded phases, reference has %d", len(folds), len(ref.Phases))
	}
	for p, ph := range ref.Phases {
		if !reflect.DeepEqual(folds[p], ph.Folds) {
			return fmt.Errorf("phase %d folds differ from the reference", ph.ClusterID)
		}
		if ph.Stacks != nil && !reflect.DeepEqual(stacks[p], ph.Stacks) {
			return fmt.Errorf("phase %d stacks differ from the reference", ph.ClusterID)
		}
	}
	return nil
}

func equalErr(what string, ok bool) error {
	if ok {
		return nil
	}
	return fmt.Errorf("%s differs from the reference", what)
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sameRecords is reflect.DeepEqual that also equates nil and empty.
func sameRecords[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// sameFloat is == that also equates two NaNs.
func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// layerMetrics times the layers on the workload's trace and folds in
// the daemon and in-process /metrics pages.
func layerMetrics(res *result) map[string]metric {
	v := map[string]float64{}
	layers(res.t, v, res.layerInput, res.layerOpts, res.sim, median(res.t.get("analyze")))

	sc := res.scrape
	for _, reg := range res.registries {
		var b strings.Builder
		reg.WritePrometheus(&b)
		sc.parse([]byte(b.String()))
	}
	const analyze, partial = "/v1/analyze", "/v1/partial"
	v["foldsvc.analyze_s"] = sc.sum("foldsvc_request_seconds_sum", "path", analyze)
	v["foldsvc.partial_s"] = sc.sum("foldsvc_request_seconds_sum", "path", partial)
	v["foldsvc.fanout_s"] = sc.sum("foldsvc_fanout_seconds_sum")
	v["foldsvc.reduce_s"] = sc.sum("foldsvc_reduce_seconds_sum")
	v["foldsvc.rejected"] = sc.sum("foldsvc_rejected_total")
	v["foldsvc.client_retries"] = sc.sum("foldsvc_client_retries_total")
	hits, misses := sc.sum("foldsvc_cache_hits_total"), sc.sum("foldsvc_cache_misses_total")
	v["rescache.hits"] = hits
	v["rescache.misses"] = misses
	v["rescache.coalesced"] = sc.sum("foldsvc_cache_coalesced_total")
	v["rescache.hit_ratio"] = hits / math.Max(hits+misses, 1)
	appends, snaps := sc.sum("foldsvc_session_appends_total"), sc.sum("foldsvc_session_snapshots_total")
	v["session.appends"] = appends
	v["session.snapshots"] = snaps
	v["session.appends_per_snapshot"] = appends / math.Max(snaps, 1)
	v["session.fsync_p50_ms"] = 1e3 * sc.quantile("foldsvc_session_journal_fsync_seconds", 0.5)
	v["session.append_p50_ms"] = median(res.t.get("append"))
	v["session.lag_p50_ms"] = median(res.t.get("lag"))

	m := map[string]metric{}
	for name, x := range v {
		m[name] = metric{x, layerUnits[name]}
	}
	return m
}

// layerUnits names every per-layer metric with its unit.
var layerUnits = map[string]string{
	"sim.run_s": "s", "trace.sort_s": "s",
	"trace.decode_row_s": "s", "trace.decode_col_s": "s", "trace.records": "count", "trace.mb": "MB",
	"burst.extract_s": "s", "burst.bursts": "count", "burst.kept": "count", "burst.attach_s": "s", "burst.samples": "count",
	"cluster.total_s": "s", "cluster.points": "count", "cluster.k": "count", "cluster.eps": "norm",
	"cluster.autoeps_s": "s", "cluster.dbscan_s": "s", "cluster.dbscan_alloc_mb": "MB", "cluster.silhouette_s": "s",
	"folding.fold_s": "s", "folding.stacks_s": "s", "folding.instances": "count", "folding.points": "count",
	"core.mapshard_s": "s", "core.reduce_s": "s", "core.encode_s": "s", "core.report_mb": "MB", "core.layer_sum_ratio": "ratio",
	"foldsvc.analyze_s": "s", "foldsvc.partial_s": "s", "foldsvc.fanout_s": "s", "foldsvc.reduce_s": "s",
	"foldsvc.rejected": "count", "foldsvc.client_retries": "count",
	"rescache.hits": "count", "rescache.misses": "count", "rescache.coalesced": "count", "rescache.hit_ratio": "ratio",
	"session.appends": "count", "session.snapshots": "count", "session.appends_per_snapshot": "ratio", "session.fsync_p50_ms": "ms",
	"session.append_p50_ms": "ms", "session.lag_p50_ms": "ms",
}
