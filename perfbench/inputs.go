package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/trace"
)

// traceSpec is a simulator configuration: application, shape and
// sampling period. The seed comes from the command line.
type traceSpec struct {
	App          string
	Ranks, Iters int
	Period       trace.Time
}

var (
	// coldLargeSpec is the bench-large preset (tracegen -preset
	// bench-large): ~563k events, ~102k kept bursts, 19.5 MB encoded.
	coldLargeSpec = traceSpec{apps.BenchLargeApp, apps.BenchLargeRanks, apps.BenchLargeIters, 20_000_000}
	// denseFoldSpec samples cg every 0.5 ms: ~15x the samples per burst
	// of bench-large, so folding and encoding dominate.
	denseFoldSpec = traceSpec{"cg", 16, 1000, 500_000}
)

// input is one generated trace with everything its checks need.
type input struct {
	spec    traceSpec
	seed    uint64
	kernels []*kernels.Kernel
	// tr is the trace decoded back from raw — what every analysis path
	// sees.
	tr  *trace.Trace
	raw []byte
	// ref is core.Analyze of tr under the workload's options; digest is
	// its normalized Report digest, foldErr its worst phase fold error.
	ref     *core.Report
	digest  string
	foldErr float64
	// foldFail is set when an analyzed phase misses the accuracy claim;
	// unfolded lists the phases the analysis could not fold.
	foldFail error
	unfolded []string
	// chunks are session.Chunks pieces of tr, encoded for appends.
	chunks [][]byte
	// simS times sim.Run.
	simS float64
}

// prepare simulates spec under seed, encodes and decodes the trace,
// computes the reference analysis and cuts nChunks append chunks (none
// when nChunks is 0).
func prepare(spec traceSpec, seed uint64, opts core.Options, nChunks int) (*input, error) {
	app, err := apps.ByName(spec.App, spec.Iters)
	if err != nil {
		return nil, err
	}
	cfg := apps.DefaultTraceConfig(spec.Ranks)
	cfg.Sampling.Period = spec.Period
	cfg.Seed = seed
	t0 := time.Now()
	gen, err := sim.Run(cfg, app)
	if err != nil {
		return nil, fmt.Errorf("simulate %s: %w", spec.App, err)
	}
	in := &input{spec: spec, seed: seed, kernels: app.Kernels(), simS: time.Since(t0).Seconds()}
	var buf bytes.Buffer
	if err := gen.Write(&buf); err != nil {
		return nil, err
	}
	in.raw = buf.Bytes()
	if in.tr, err = trace.ReadFrom(bytes.NewReader(in.raw)); err != nil {
		return nil, fmt.Errorf("decode %s: %w", spec.App, err)
	}
	if in.ref, err = core.Analyze(in.tr, opts); err != nil {
		return nil, fmt.Errorf("reference analysis of %s: %w", spec.App, err)
	}
	js, err := json.Marshal(in.ref)
	if err != nil {
		return nil, err
	}
	if in.digest, err = reportDigest(js, in.ref.Pipeline); err != nil {
		return nil, err
	}
	if in.ref.Degraded {
		return nil, fmt.Errorf("reference analysis of %s is degraded: %v", spec.App, in.ref.Warnings)
	}
	// A fold error at or above the claim is an output failure counted
	// per operation, not a set-up failure.
	in.foldErr, in.unfolded, in.foldFail = foldErrPct(in.ref, in.kernels)
	if nChunks == 0 {
		return in, nil
	}
	for _, piece := range session.Chunks(in.tr, nChunks) {
		var b bytes.Buffer
		if err := piece.Write(&b); err != nil {
			return nil, err
		}
		in.chunks = append(in.chunks, b.Bytes())
	}
	return in, nil
}

// noteUnfolded reports on stderr every analyzed phase of the reference
// Report that could not be folded.
func (in *input) noteUnfolded() {
	for _, u := range in.unfolded {
		fmt.Fprintf(os.Stderr, "perfbench: %s %dx%d seed %d: %s\n", in.spec.App, in.spec.Ranks, in.spec.Iters, in.seed, u)
	}
}

// refCheck is the output check every operation on in runs: the
// normalized digest must match the reference, the Report must not be
// degraded, and the reference's folds must hold the accuracy claim.
func (in *input) refCheck(digest string, degraded bool) error {
	if degraded {
		return fmt.Errorf("degraded report")
	}
	if digest != in.digest {
		return fmt.Errorf("report digest differs from core.Analyze of the same trace")
	}
	return in.foldFail
}
