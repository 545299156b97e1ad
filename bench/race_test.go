//go:build race

package main

// smokeSeconds is the smoke test's window. The race detector slows
// requests several-fold, so the window grows to still fill the tail
// percentiles.
const smokeSeconds = 5
