//go:build race

package main

// raceEnabled tells the smoke test that the race detector slows it several
// times over, so its time limit does not apply.
const raceEnabled = true
