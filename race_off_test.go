//go:build !race

package vani

const raceEnabled = false
