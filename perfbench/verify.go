package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/kernels"
	"repro/internal/pipeline"
)

// foldLimitPct is the paper's accuracy claim: every analyzed phase's
// folded TOT_INS curve within 5% of the true kernel shape.
const foldLimitPct = 5.0

// reportDigest is the SHA-256 of a Report's JSON encoding with every
// Pipeline stage's Wall and Bytes zeroed — the fields two equivalent
// runs may legitimately disagree on (normalizeReport in
// internal/core/determinism_test.go clears the same ones). js must be
// the encoding of a Report whose stage metrics are pipe; the stage
// array is located verbatim and swapped for its normalized form, so
// the multi-megabyte remainder is hashed without being re-encoded.
func reportDigest(js []byte, pipe []pipeline.Metrics) (string, error) {
	js = bytes.TrimSuffix(js, []byte("\n"))
	orig, err := json.Marshal(pipe)
	if err != nil {
		return "", err
	}
	norm := make([]pipeline.Metrics, len(pipe))
	for i, m := range pipe {
		m.Wall, m.Bytes = 0, 0
		norm[i] = m
	}
	normJS, err := json.Marshal(norm)
	if err != nil {
		return "", err
	}
	seg := append([]byte(`"Pipeline":`), orig...)
	i := bytes.Index(js, seg)
	if i < 0 {
		return "", fmt.Errorf("report JSON has no Pipeline array matching its stages")
	}
	h := sha256.New()
	h.Write(js[:i])
	h.Write([]byte(`"Pipeline":`))
	h.Write(normJS)
	h.Write(js[i+len(seg):])
	return hex.EncodeToString(h.Sum(nil)), nil
}

// bodyDigest is reportDigest for a Report that arrived as JSON (an HTTP
// body or an SSE frame); it also returns the Report's Degraded flag.
func bodyDigest(body []byte) (string, bool, error) {
	var head struct {
		Pipeline []pipeline.Metrics
		Degraded bool
	}
	if err := json.Unmarshal(body, &head); err != nil {
		return "", false, fmt.Errorf("decode report: %w", err)
	}
	d, err := reportDigest(body, head.Pipeline)
	return d, head.Degraded, err
}

// covers reports whether a snapshot that analyzed rec covers an append
// acknowledged with these cumulative record counts.
func covers(rec pipeline.RecordCounts, events, samples, comms int) bool {
	return rec.Events == int64(events) && rec.Samples == int64(samples) && rec.Comms == int64(comms)
}

// foldErrPct returns the worst folded phase's TOT_INS fold error
// against the simulator's analytic kernel shape, in percent: each
// phase's majority oracle kernel names the ground truth, and
// folding.Result.MeanAbsDiff measures the folded curve against it.
// Every folded phase must stay below the paper's 5% claim. A phase the
// analysis could not fold — it says why in Phase.Warnings, e.g. a shard
// with too few samples to fit — has no curve to judge and is returned
// in unfolded instead, except the phase with the most computation time,
// which must be folded.
func foldErrPct(rep *core.Report, ks []*kernels.Kernel) (worst float64, unfolded []string, err error) {
	if len(rep.Phases) == 0 {
		return 0, nil, fmt.Errorf("report has no analyzed phases")
	}
	for _, ph := range rep.Phases {
		f := ph.Folds[counters.TotIns]
		if f == nil {
			if ph.ClusterID == 1 {
				return 0, nil, fmt.Errorf("phase 1 has no TOT_INS fold: %v", ph.Warnings)
			}
			unfolded = append(unfolded, fmt.Sprintf("phase %d (%d instances) has no TOT_INS fold: %v",
				ph.ClusterID, ph.Instances, ph.Warnings))
			continue
		}
		var truth counters.Shape
		for _, k := range ks {
			if k.ID == ph.MajorityOracle {
				truth = k.ShapeOf(counters.TotIns)
			}
		}
		if truth == nil {
			return 0, nil, fmt.Errorf("phase %d: no kernel with oracle id %d", ph.ClusterID, ph.MajorityOracle)
		}
		worst = max(worst, 100*f.MeanAbsDiff(truth))
	}
	if worst >= foldLimitPct {
		return worst, unfolded, fmt.Errorf("worst phase fold error %.2f%% reaches the %.0f%% claim", worst, foldLimitPct)
	}
	return worst, unfolded, nil
}
