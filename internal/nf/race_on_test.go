//go:build race

package nf

// raceDetector reports whether the tests were built with -race, under
// which the full-size new-flow storm takes a third of a minute; the
// blocking gate runs the scaled one.
const raceDetector = true
