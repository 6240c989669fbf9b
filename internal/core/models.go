package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"regcluster/internal/matrix"
	"regcluster/internal/rwave"
)

// The RWave^γ index (Section 3, Lemma 3.1) depends only on the expression
// matrix and the per-gene regulation thresholds γ_i — not on ε, MinG, MinC or
// the budget caps. Parameter sweeps that vary only those knobs can therefore
// build the index once and re-mine many times; this file is that surface:
// BuildModels constructs a shareable model set, ModelKey names it
// canonically, and Options.Models accepts it.

// BuildModels validates (m, p) and builds the RWave model set Mine would
// build internally, fanning the construction across CPUs for large gene
// counts. The set is immutable after construction and safe to share: between
// concurrent MineWith calls, across worker pools, and across any number of
// runs over m whose parameters agree on the γ-scheme — i.e. have the same
// ModelKey. Varying Epsilon, MinG, MinC, the caps, or the ablation switches
// does not invalidate a model set.
//
// A non-nil Observer with an attached span records the construction as an
// "rwave.build" child span, exactly as a plain Mine run would.
func BuildModels(m *matrix.Matrix, p Params, o *Observer) (*rwave.Set, error) {
	return prepare(m, p, o.traceSpan())
}

// ModelKey returns the canonical cache identity of the RWave model set that
// BuildModels(m, p) produces, for a matrix identified by datasetHash (any
// stable content identifier; the service uses the registry's content hash).
// Two (dataset, Params) pairs share a key exactly when they share a model
// set. The γ-values are encoded by their IEEE-754 bit patterns, so the key is
// total — defined even for non-finite values that Validate rejects — and
// never conflates 0 with -0 or distinct NaNs with numbers.
func ModelKey(datasetHash string, p Params) string {
	var scheme string
	switch {
	case p.CustomGammas != nil:
		h := sha256.New()
		var buf [8]byte
		for _, v := range p.CustomGammas {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		scheme = "custom:" + hex.EncodeToString(h.Sum(nil))
	case p.AbsoluteGamma:
		scheme = fmt.Sprintf("abs:%016x", math.Float64bits(p.Gamma))
	default:
		scheme = fmt.Sprintf("rel:%016x", math.Float64bits(p.Gamma))
	}
	return datasetHash + "|" + scheme
}
