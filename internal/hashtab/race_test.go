//go:build race

package hashtab

func init() { raceDetector = true }
