//go:build !matcheck

package congest

// The guards below are false constants in the default build, so the code
// they gate pays nothing (see matcheck_on.go).

// checkRoundZero gates the round-0 guard of sparse starts: a run pays
// nothing for the nodes it leaves out of round 0.
const checkRoundZero = false

// checkCharge gates the reference check of charged primitives: Charged
// runs the charge alone.
const checkCharge = false
