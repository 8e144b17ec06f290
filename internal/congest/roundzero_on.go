//go:build matcheck

package congest

// checkRoundZero: this build carries the matcheck tag, so every run that
// starts from fewer than all nodes also steps each left-out node once in
// round 0 with an empty inbox and fails with ErrRoundZero if it sends or
// stays live. CI runs the race test suite with this tag.
const checkRoundZero = true
