package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rescache"
	"repro/internal/session"
	"repro/internal/trace"
)

const (
	// replayChunks is how many session.Chunks pieces the traced run
	// replays into a live session.
	replayChunks = 5
	// hitsPerMiss is how many cache hits follow each cold analysis.
	hitsPerMiss = 4
	// minAnalyses keeps the cold-analysis percentiles defined on a slow
	// machine even when the window is already spent.
	minAnalyses = 3
	// setups is how many times a run repeats its set-up for setup_s.
	setups = 3
)

// workloadOptions are the options of BenchmarkAnalyzeEndToEnd: defaults
// plus a 256-member silhouette sample, with one worker per CPU.
func workloadOptions() (core.Options, url.Values) {
	nproc := runtime.NumCPU()
	opts := core.Options{Parallelism: nproc}
	opts.Cluster.SilhouetteSample = 256
	return opts, url.Values{"sil_sample": {"256"}, "parallel": {fmt.Sprint(nproc)}}
}

// sessionMetrics registers the daemon's session metric families on reg
// so an in-process manager renders the same /metrics page the daemon
// does.
func sessionMetrics(reg *obs.Registry) session.Metrics {
	return session.Metrics{
		Appends:   reg.Counter("foldsvc_session_appends_total", "Session appends."),
		Snapshots: reg.Counter("foldsvc_session_snapshots_total", "Session snapshots."),
		Fsync: reg.Histogram("foldsvc_session_journal_fsync_seconds", "Journal fsync seconds.",
			[]float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1}),
	}
}

// inProcess runs cold-large or dense-fold: repeated cold analyses of one
// large trace through core.AnalyzeStreamContext + json.Marshal, each the
// miss of a fresh result cache and followed by cache hits for the same
// bytes. The traced run adds a live replay of the trace and the foldsvc
// probe.
func inProcess(res *result, spec traceSpec, seed uint64, seconds int, traced bool, dir string) error {
	opts, query := workloadOptions()
	var in *input
	for i := 0; i < setups; i++ {
		in = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if in, err = prepare(spec, seed, opts, replayChunks); err != nil {
			return err
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
		res.sim = append(res.sim, in.simS)
	}
	in.noteUnfolded()
	res.foldErr = in.foldErr
	res.layerInput, res.layerOpts = in, opts

	reg := obs.NewRegistry()
	res.registries = append(res.registries, reg)
	// The window starts from a collected heap, and peak_rss_mb covers
	// only the window.
	runtime.GC()
	resetPeakRSS()
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	// Every analysis starts from a collected heap: it is cold in memory
	// too, and does not inherit the previous one's garbage.
	for n := 0; n < minAnalyses || time.Now().Before(deadline); n++ {
		runtime.GC()
		coldAnalysis(res.t, reg, in, opts)
	}
	misses := res.t.get("miss")
	var missMS float64
	for _, ms := range misses {
		missMS += ms
	}
	res.reqPerS = 1e3 * float64(len(misses)) / missMS
	// The median, not the mean: how much a sync.Pool reuses depends on
	// where a collection falls inside the analysis.
	res.allocMB = median(res.t.get("alloc"))

	if !traced {
		return nil
	}
	if err := liveReplay(res.t, reg, in, opts, dir); err != nil {
		return err
	}
	return serviceProbe(res, in, query)
}

// coldAnalysis runs one cache miss — digest, key, then a cold analysis
// and JSON encoding inside GetOrCompute on an empty cache — followed by
// hitsPerMiss lookups of the same bytes that the cache must answer. It
// also records the MB the analysis allocated.
func coldAnalysis(t *tally, reg *obs.Registry, in *input, opts core.Options) {
	ctx := context.Background()
	cache := rescache.New(rescache.Config{Registry: reg, Namespace: "foldsvc"})
	var rep *core.Report
	var ms0, ms1 runtime.MemStats
	t0 := time.Now()
	key := rescache.Key("report", trace.DigestBytes(in.raw), opts.Fingerprint())
	data, status, err := cache.GetOrCompute(ctx, key, func(ctx context.Context) (rescache.Result, error) {
		runtime.ReadMemStats(&ms0)
		t1 := time.Now()
		var err error
		if rep, err = core.AnalyzeStreamContext(ctx, bytes.NewReader(in.raw), opts); err != nil {
			return rescache.Result{}, err
		}
		js, err := json.Marshal(rep)
		if err != nil {
			return rescache.Result{}, err
		}
		t.add("analyze", time.Since(t1).Seconds())
		runtime.ReadMemStats(&ms1)
		return rescache.Result{Data: js}, nil
	})
	missMS := float64(time.Since(t0).Microseconds()) / 1e3
	if err == nil && status != rescache.Miss {
		err = fmt.Errorf("empty cache answered %s", status)
	}
	if err == nil {
		var d string
		if d, err = reportDigest(data, rep.Pipeline); err == nil {
			err = in.refCheck(d, rep.Degraded)
		}
	}
	t.op("cold analysis", err)
	if err != nil {
		return
	}
	t.add("miss", missMS)
	t.add("alloc", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)

	for i := 0; i < hitsPerMiss; i++ {
		t0 := time.Now()
		key := rescache.Key("report", trace.DigestBytes(in.raw), opts.Fingerprint())
		hit, status, err := cache.GetOrCompute(ctx, key, func(context.Context) (rescache.Result, error) {
			return rescache.Result{}, errors.New("warm cache recomputed")
		})
		hitMS := float64(time.Since(t0).Microseconds()) / 1e3
		if err == nil && (status != rescache.Hit || !bytes.Equal(hit, data)) {
			err = fmt.Errorf("cache answered %s with %d bytes, want a hit with the miss's %d bytes", status, len(hit), len(data))
		}
		t.op("cache hit", err)
		if err == nil {
			t.add("hit", hitMS)
		}
	}
}

// liveReplay feeds in's chunks into a journaled in-process session,
// one append at a time, waiting after each acknowledgement for the
// snapshot covering it; the final snapshot must equal batch analysis of
// the whole trace. It gives the traced run its session-layer numbers.
func liveReplay(t *tally, reg *obs.Registry, in *input, opts core.Options, dir string) error {
	mgr, err := session.NewManager(session.Config{
		Dir:     filepath.Join(dir, "sessions"),
		Options: func(url.Values) (core.Options, error) { return opts, nil },
		Metrics: sessionMetrics(reg),
	})
	if err != nil {
		return err
	}
	defer mgr.Close(context.Background())
	sess, err := mgr.Open(url.Values{})
	t.op("session open", err)
	if err != nil {
		return nil
	}
	sub := sess.Subscribe(0)
	defer sess.Unsubscribe(sub)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i, chunk := range in.chunks {
		runtime.GC()
		t0 := time.Now()
		ack, err := sess.Append(ctx, chunk, uint64(i+1))
		appendMS := float64(time.Since(t0).Microseconds()) / 1e3
		t.op("session append", err)
		if err != nil {
			return nil
		}
		t.add("append", appendMS)
		ackAt := time.Now()
		var snap *session.Snapshot
		for snap == nil || !covers(snap.Report.Records, ack.Events, ack.Samples, ack.Comms) {
			if snap, err = sub.Next(ctx); err != nil {
				break
			}
		}
		lagMS := float64(time.Since(ackAt).Microseconds()) / 1e3
		if err == nil && i == len(in.chunks)-1 {
			var d string
			if d, err = reportDigest(snap.Data, snap.Report.Pipeline); err == nil {
				err = in.refCheck(d, snap.Report.Degraded)
			}
		}
		t.op("session snapshot", err)
		if err != nil {
			return nil
		}
		t.add("lag", lagMS)
	}
	return nil
}
