//go:build !race

package colstore

const raceEnabled = false
