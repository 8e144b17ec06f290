//go:build matcheck

package broadcast

// checkCharge: this build carries the matcheck tag, so every charged
// primitive also runs its reference protocol on a clone of the network and
// fails with ErrChargeMismatch if the two differ in Stats or in the
// per-round delivery stream. CI runs the race test suite with this tag.
const checkCharge = true
