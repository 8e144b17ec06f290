//go:build matcheck

package congest

// This build carries the matcheck tag, which CI's race test step sets.

// checkRoundZero: every run that starts from fewer than all nodes also
// steps each left-out node once in round 0 with an empty inbox and fails
// with ErrRoundZero if it sends or stays live.
const checkRoundZero = true

// checkCharge: every Charged call also runs the primitive's reference
// protocol on a clone of the network and fails with ErrChargeMismatch if
// the two differ in Stats, the per-round delivery stream or the outputs.
const checkCharge = true
