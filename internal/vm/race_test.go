//go:build race

package vm

func init() { raceDetector = true }
