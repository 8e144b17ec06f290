//go:build !matcheck

package congest

// checkRoundZero gates the round-0 guard of sparse starts (see
// roundzero_on.go). In the default build it is a false constant, so a run
// pays nothing for the nodes it leaves out of round 0.
const checkRoundZero = false
