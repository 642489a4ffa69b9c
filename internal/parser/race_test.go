//go:build race

package parser

func init() { raceDetector = true }
