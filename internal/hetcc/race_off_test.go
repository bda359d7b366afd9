//go:build !race

package hetcc

const raceEnabled = false
