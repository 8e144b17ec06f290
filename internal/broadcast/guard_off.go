//go:build !matcheck

package broadcast

// checkCharge gates the reference check of charged primitives (see
// guard_on.go). In the default build it is a false constant, so a charged
// call pays nothing for it.
const checkCharge = false
