//go:build race

package gluenail

func init() { raceDetector = true }
