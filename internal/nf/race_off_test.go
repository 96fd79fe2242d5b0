//go:build !race

package nf

const raceDetector = false
